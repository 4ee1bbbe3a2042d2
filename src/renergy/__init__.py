"""Stochastic-geometry simulator and analytic bounds for cellular downlinks
powered by spatially correlated renewable energy fields."""

from .aggregation import Distributed, LineSpec
from .channel import ChannelSpec, ChiSquaredFading, TruncatedRicianFading
from .coverage import OnSite, ScenarioConfig, Scheme, bound_values, simulate_both
from .energy_field import EnergyFieldSpec, Kernel
from .harness import emit_csv, load_config, normalized_equivalent, run_sweep

__version__ = "0.1.0"
