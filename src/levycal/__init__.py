"""Calibration toolkit for exponential Levy option-pricing models."""

__version__ = "0.1.0"

from .levy_models import (CumulantSet, CustomModel, KouModel, MertonModel, cumulants,
                          f_exponent, parametric_char_shifted)
from .spectral import (SpectralCurve, SpectralGrid, phi_from_time_values, regrid_time_values,
                       time_value_curve, time_values_from_phi)
from .elnn import ElnnParams, TrainConfig, implied_levy_density, train
from .market import (MarketSlice, NoiseSpec, OptionQuote, QuoteFilters, amplify,
                     generate_virtual_market, ingest_quotes, moment_table, to_time_values)
from .calibrate import (PeriodEstimate, bucketed_errors, calibrate_parametric,
                        run_elnn, spectral_target, stability_summary)
