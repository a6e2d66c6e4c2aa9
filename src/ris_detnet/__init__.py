"""Deterministic-delay guarantees and hybrid-action RL for a RIS-assisted
secure IIoT downlink."""

from .channel import (ChannelRealization, FadingParams, LinkStats,
                      PhaseShiftConfig, Topology, composite_gain, path_loss,
                      sample_channels, snr)
from .config import (ConfigError, ScenarioConfig, config_hash, default_config,
                     dump_config, load_config, load_config_text)
from .env import ActionCodebook, HybridAction, RisDownlinkEnv, StateVector, build_codebook
from .fbc import SecrecyParams, dispersion, fbc_secrecy_rate, q_inv, secrecy_capacity
from .mellin import (ArrivalModel, DelayWindow, DeterminacyResult, QuadratureError,
                     QuadratureSpec, SearchError, ServiceModel,
                     StabilityError, arrival_mellin, delay_determinacy, kernel,
                     lemma1_kernel, service_mellin_u, stability_smax, violation_bound)
from .queuesim import (QueueResult, fbc_service_sampler,
                       model_matched_service_sampler, simulate_queue)

__version__ = "0.1.0"
