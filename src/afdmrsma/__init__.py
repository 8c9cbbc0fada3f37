"""SIC-free AFDM/OFDM rate-splitting link simulator.

The shared (common) stream rides on chirp subcarriers in the affine domain
at high power, the per-user (private) stream on plain OFDM subcarriers at
low power; the two spread into disjoint residue classes of each other's
domain, so a dual-branch receiver separates them without successive
interference cancellation.
"""
from .channel import (ChannelSpec, ChannelTap, apply_channel, freq_response,
                      frequency_diagonal, snr_to_noise_var, two_tap)
from .core import (BITS_PER_SYMBOL, Domain, Frame, demodulate_symbols, frame_rng,
                   modulate_bits, random_bits)
from .errors import (ConfigError, DegeneratePilot, DopplerPresent, GuardViolation,
                     InvalidChannel, InvalidIndex, InvalidLength, PilotContaminated,
                     SimulationError, SingularChannel, UnresolvableDoppler)
from .framing import (Approach, FrameConfig, ResourceMap, RsmaMessages, add_cp,
                      build_affine_common, build_affine_extra, build_affine_pilot,
                      build_frame, build_freq_private, capacity_counts,
                      extract_received_planes, frame_energy_budget, remove_cp,
                      required_bits_per_user, resource_map, split_messages)
from .harness import (CSV_COLUMNS, LinkResult, SimConfig, emit_results, load_config,
                      measure_se, run_point, run_sweep)
from .receiver import (ChannelEstimate, DetectionResult, ReceiverMode, detect_streams,
                       equalize, estimate_channel_affine, estimate_channel_freq,
                       estimate_nmse, perfect_estimate)
from .transforms import (AffineParams, affine_to_freq, daft, dft, freq_to_affine, idaft,
                         idft)

__version__ = "0.1.0"
