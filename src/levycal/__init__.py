"""Calibration toolkit for exponential Levy option-pricing models."""

__version__ = "0.1.0"

from .levy_models import (CumulantSet, CustomModel, KouModel, MertonModel, char_fn, cumulants,
                          f_exponent, parametric_char_shifted)
from .spectral import (SpectralCurve, SpectralGrid, call_price,
                       phi_from_time_values, plancherel_gap, regrid_time_values,
                       time_value_curve, time_values_from_phi, zeta)
from .elnn import (Adam, ElnnParams, TrainConfig, ann_i, ann_r, implied_lambda,
                   implied_levy_density, objective, gradient, phi_model, regularizer, train)
from .market import (MarketSlice, NoiseSpec, OptionQuote, QuoteFilters, amplify,
                     generate_virtual_market, ingest_quotes, moment_table, to_time_values,
                     uniform_k_sampler)
from .calibrate import (PeriodEstimate, bucketed_errors, calibrate_parametric,
                        parametric_report, run_elnn, spectral_target, stability_summary)
