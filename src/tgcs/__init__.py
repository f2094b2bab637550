"""Truncated generalized coherent states: special functions, statistics, completeness."""

from .gseq import (AsymptoticFamily, AsymptoticTerm, AuxFunction, Factorial, G1,
                   GSequence, MLGamma, Table, WrightProduct,
                   asymptotic_leading_term, mellin_transform, verify_mellin_link)
from .specfun import (KratzelParams, kratzel_kernel, log_gamma, mittag_leffler,
                      truncated_series, wright)
from .states import (INFINITE, ExcitationDistribution, FockVector, StateSpec,
                     amplitudes, bargmann_inner_product, bargmann_poly,
                     excitation_distribution, normalization, overlap)
from .statistics import (QReport, Regime, SmallLabelSign, correlation_g2, mandel_q,
                         mandel_q2_closed_form, mandel_q_closed_form, number_moments,
                         p_asymptotic, q2_zero_crossing, q_large_label_approx,
                         q_small_label_sign)
from .completeness import (CanonicalTruncatedWeight, GeneralWeight, MLWeight,
                           MomentReport, QuadratureResult, WeightFunction,
                           WrightWeight, moment_check, quadrature_improper,
                           weight_eval)
from .zeros import RootSet, orthogonal_pair, polynomial_roots
from .sampler import SampleRun, sample_counts

__all__ = [name for name in dir() if not name.startswith("_")]
