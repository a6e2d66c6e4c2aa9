"""Scenario configuration: plain-text schema, validation, canonical dump/hash.

The file format is INI-style sections of typed key = value lines.  Every
key has a default reproducing the reference simulation setup (AP (0,20),
RIS (50,20), Eve (50,0), 2 m user circle, PL0 -30 dB, alpha 4 / 2.2,
Rician factors 3, noise -85 dBm, decoding error rate 2e-6), so an empty
file is a valid scenario.  Unknown sections or keys are rejected.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, Topology, delta_sq_closed_form
from .fbc import SecrecyParams
from .mellin import ArrivalModel, DelayWindow


class ConfigError(ValueError):
    """Invalid scenario file: unknown key, bad type, or invariant failure."""


def _parse_float(text):
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {text!r}")
    return val


def _parse_int(text):
    val = _parse_float(text)
    if val != int(val):
        raise ValueError(f"expected integer, got {text!r}")
    return int(val)


def _parse_pair(text):
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected two coordinates, got {text!r}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_ints(text):
    return tuple(_parse_int(p) for p in text.split())


def _parse_auto_float(text):
    if text.strip().lower() == "auto":
        return None
    return _parse_float(text)


def _choice(*options):
    def parse(text):
        t = text.strip()
        if t not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return t
    parse.options = options
    return parse


def fmt_value(value) -> str:
    """Canonical text of a config value or a CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return " ".join(fmt_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# (section, key) -> (parser, default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "topology": {
        "ap_pos": (_parse_pair, (0.0, 20.0)),
        "ris_pos": (_parse_pair, (50.0, 20.0)),
        "eve_pos": (_parse_pair, (50.0, 0.0)),
        "user_radius": (_parse_float, 2.0),
        "n_users": (_parse_int, 2),
        "n_elements": (_parse_int, 16),
        "carrier_wavelength": (_parse_float, 0.1),
        "element_spacing": (_parse_auto_float, None),
    },
    "fading": {
        "pl0_db": (_parse_float, -30.0),
        "alpha_direct": (_parse_float, 4.0),
        "alpha_ris": (_parse_float, 2.2),
        "rician_k_r": (_parse_float, 3.0),
        "rician_k_gk": (_parse_float, 3.0),
        "noise_power_dbm": (_parse_float, -85.0),
        "eve_mean_snr": (_parse_auto_float, None),
    },
    "arrival": {
        "lambda_pkts": (_parse_float, 0.2),
        "pkt_bits": (_parse_int, 256),
        "variant": (_choice("standard_compound", "paper_literal"), "standard_compound"),
    },
    "secrecy": {
        "epsilon_e": (_parse_float, 2e-6),
        "sigma_leak": (_parse_float, 1e-3),
    },
    "delay": {
        "t_min": (_parse_int, 2),
        "t_max": (_parse_int, 8),
    },
    "budget": {
        "p_max": (_parse_float, 1.0),
        "n_max": (_parse_int, 512),
    },
    "codebook": {
        "n_power_levels": (_parse_int, 4),
        "n_codewords": (_parse_int, 4),
        "phase_mode": (_choice("quantized", "random", "aligned"), "aligned"),
        "phase_bits": (_parse_int, 3),
        "align_user": (_parse_int, 0),
        "n_floor": (_parse_int, 16),
        "n_ceiling": (_parse_auto_float, None),
    },
    "allocation": {
        "power": (_parse_auto_float, None),
        "cbl": (_parse_auto_float, None),
        "codeword": (_parse_int, 0),
    },
    "env": {
        "episode_steps": (_parse_int, 200),
        "violation_penalty": (_parse_float, 0.05),
    },
    "agent": {
        "algo": (_choice("sid_pdqn", "dqn", "random"), "sid_pdqn"),
        "alpha": (_parse_float, 1e-3),
        "beta": (_parse_float, 1e-4),
        "gamma": (_parse_float, 0.9),
        "epsilon_start": (_parse_float, 1.0),
        "epsilon_end": (_parse_float, 0.05),
        "epsilon_decay_steps": (_parse_int, 4000),
        "n_step": (_parse_int, 3),
        "batch_size": (_parse_int, 32),
        "buffer_capacity": (_parse_int, 20000),
        "target_sync": (_parse_int, 100),
        "optimizer": (_choice("adam", "plain_sgd"), "adam"),
        "warmup": (_parse_auto_float, None),
        "grad_clip": (_parse_float, 10.0),
        "hidden": (_parse_ints, (128, 128)),
        "episodes": (_parse_int, 150),
        "cbl_levels": (_parse_int, 8),
        "eval_episodes": (_parse_int, 5),
    },
    "run": {
        "seed": (_parse_int, 1),
        "out_dir": (str, "out"),
        "workers": (_parse_int, 0),
    },
}


@dataclass
class ScenarioConfig:
    """Validated scenario: nested {section: {key: typed value}}."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set_by_path(self, path: str, raw_value):
        """Assign a swept parameter by 'section.key' path; value may be raw text."""
        if "." not in path:
            raise ConfigError(f"parameter path must be section.key: {path!r}")
        section, key = path.rsplit(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown parameter path: {path!r}")
        self._assign(section, key, str(raw_value))
        _validate(self)

    def _assign(self, section: str, key: str, raw: str):
        """Parse the text of one schema key into place, naming it on failure."""
        try:
            self.values[section][key] = SCHEMA[section][key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None

    def copy(self) -> "ScenarioConfig":
        return ScenarioConfig({s: dict(kv) for s, kv in self.values.items()})

    # -- derived model objects ------------------------------------------

    def sample_user_positions(self, rng: np.random.Generator) -> np.ndarray:
        """Users uniform on the disk of user_radius around Eve."""
        k = self.get("topology", "n_users")
        radius = self.get("topology", "user_radius")
        eve = np.asarray(self.get("topology", "eve_pos"))
        r = radius * np.sqrt(rng.random(k))
        ang = rng.uniform(0.0, 2 * np.pi, k)
        return eve[None, :] + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)

    def build_topology(self, user_pos: np.ndarray) -> Topology:
        t = self.values["topology"]
        return Topology(ap_pos=t["ap_pos"], ris_pos=t["ris_pos"], eve_pos=t["eve_pos"],
                        user_pos=user_pos, n_elements=t["n_elements"],
                        carrier_wavelength=t["carrier_wavelength"],
                        element_spacing=t["element_spacing"],
                        placement_radius=t["user_radius"])

    def build_fading(self) -> FadingParams:
        f = self.values["fading"]
        return FadingParams(**f)

    def build_arrival(self) -> ArrivalModel:
        a = self.values["arrival"]
        return ArrivalModel(lambda_pkts=a["lambda_pkts"], pkt_bits=a["pkt_bits"],
                            variant=a["variant"])

    def build_secrecy(self, blocklength: float) -> SecrecyParams:
        s = self.values["secrecy"]
        return SecrecyParams(epsilon_e=s["epsilon_e"], sigma_leak=s["sigma_leak"],
                             blocklength=blocklength)

    def build_window(self) -> DelayWindow:
        return DelayWindow(self.get("delay", "t_min"), self.get("delay", "t_max"))

    @property
    def n_ceiling(self) -> float:
        explicit = self.get("codebook", "n_ceiling")
        if explicit is not None:
            return float(explicit)
        return float(self.get("budget", "n_max")) / self.get("topology", "n_users")

    @property
    def warmup_transitions(self) -> int:
        explicit = self.get("agent", "warmup")
        if explicit is not None:
            return int(explicit)
        return max(self.get("agent", "batch_size"), 500)


# settings that count things: each must be at least 1
_COUNTS = (("topology", "n_users"), ("budget", "n_max"),
           ("codebook", "n_power_levels"), ("codebook", "n_codewords"),
           ("codebook", "n_floor"), ("env", "episode_steps"),
           ("agent", "n_step"), ("agent", "batch_size"), ("agent", "buffer_capacity"),
           ("agent", "target_sync"), ("agent", "episodes"), ("agent", "cbl_levels"),
           ("agent", "eval_episodes"))
# upper bounds on the counts that size arrays (users, RIS elements, codebook
# grids), checked before the model objects allocate anything
_COUNT_CAPS = {("topology", "n_users"): 1024,
               ("topology", "n_elements"): 4096,
               ("codebook", "n_power_levels"): 1024,
               ("codebook", "n_codewords"): 1024}
# noise powers past this many dBm either way overflow or underflow in watts
_NOISE_DBM_CAP = 300.0


def _validate(cfg: ScenarioConfig):
    """Cross-field invariants, raised with section diagnostics.

    The model objects check their own fields, so each is built here as the
    commands build it.  The topology gets one user at Eve's position, so it
    also rejects an AP or RIS placed on Eve.
    """
    values = cfg.values
    for section, key in _COUNTS:
        if values[section][key] < 1:
            raise ConfigError(f"[{section}] {key} must be >= 1")
    for (section, key), cap in _COUNT_CAPS.items():
        if values[section][key] > cap:
            raise ConfigError(f"[{section}] {key} must be <= {cap}")
    if abs(values["fading"]["noise_power_dbm"]) > _NOISE_DBM_CAP:
        raise ConfigError(f"[fading] noise_power_dbm must be within "
                          f"+-{_NOISE_DBM_CAP:g} dBm")
    if values["topology"]["user_radius"] <= 0:
        raise ConfigError("[topology] user_radius must be positive")
    user_at_eve = values["topology"]["eve_pos"]
    for section, build in (("delay", cfg.build_window),
                           ("secrecy", lambda: cfg.build_secrecy(1.0)),
                           ("fading", cfg.build_fading),
                           ("arrival", cfg.build_arrival),
                           ("topology", lambda: cfg.build_topology(user_at_eve))):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    # the composite-gain variance of a user at Eve's position: where the
    # path losses underflow it, Eve's calibrated SNR is 0 as well
    with np.errstate(over="ignore"):
        gain = delta_sq_closed_form(cfg.build_topology(user_at_eve), cfg.build_fading(), 0)
    if not 0.0 < gain < math.inf:
        raise ConfigError(f"[fading] pl0_db, alpha_direct and alpha_ris give a path gain "
                          f"of {gain:g} at Eve's position; it must be positive and finite")
    if values["budget"]["p_max"] <= 0:
        raise ConfigError("[budget] p_max must be positive")
    cb = values["codebook"]
    # 2**phase_bits grid levels, drawn as int64
    if not 1 <= cb["phase_bits"] <= 62:
        raise ConfigError("[codebook] phase_bits must be in [1, 62]")
    if cfg.n_ceiling < cb["n_floor"]:
        raise ConfigError("[codebook] n_ceiling (auto: n_max / n_users) must be >= n_floor")
    if not 0 <= cb["align_user"] < values["topology"]["n_users"]:
        raise ConfigError("[codebook] align_user out of range")
    alloc = values["allocation"]
    if alloc["power"] is not None and alloc["power"] <= 0:
        raise ConfigError("[allocation] power must be positive")
    if alloc["cbl"] is not None and alloc["cbl"] < 1:
        raise ConfigError("[allocation] cbl must be >= 1")
    if not 0 <= alloc["codeword"] < cb["n_codewords"]:
        raise ConfigError(f"[allocation] codeword = {alloc['codeword']} must be in "
                          f"[0, [codebook] n_codewords = {cb['n_codewords']})")
    penalty = values["env"]["violation_penalty"]
    if penalty < 0:
        raise ConfigError(f"[env] violation_penalty = {penalty:g} must be >= 0")
    if values["run"]["seed"] < 0:
        raise ConfigError("[run] seed must be >= 0")
    ag = values["agent"]
    if any(width < 1 for width in ag["hidden"]):
        raise ConfigError("[agent] hidden widths must be >= 1")
    if not 0.0 <= ag["gamma"] <= 1.0:
        raise ConfigError("[agent] gamma must be in [0, 1]")
    if ag["alpha"] <= 0 or ag["beta"] <= 0:
        raise ConfigError("[agent] learning rates must be positive")
    # the first learn step waits for this many stored transitions
    first_batch = max(cfg.warmup_transitions, ag["batch_size"])
    if first_batch > ag["buffer_capacity"]:
        raise ConfigError(f"[agent] buffer_capacity = {ag['buffer_capacity']} must be >= "
                          f"max(warmup, batch_size) = {first_batch} (warmup auto: "
                          f"max(batch_size, 500)), or the learner never takes a step")


def default_config() -> ScenarioConfig:
    values = {section: {key: spec[1] for key, spec in keys.items()}
              for section, keys in SCHEMA.items()}
    return ScenarioConfig(values)


def load_config_text(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            cfg._assign(section, key, raw)
    _validate(cfg)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return load_config_text(text)


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical text form: schema order, explicit values; hash-stable."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {fmt_value(cfg.values[section][key])}\n")
        out.write("\n")
    return out.getvalue()


# execution-location knobs: not part of the scenario identity
_HASH_EXCLUDE = {("run", "out_dir"), ("run", "workers")}


def config_hash(cfg: ScenarioConfig) -> str:
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        for key in keys:
            if (section, key) not in _HASH_EXCLUDE:
                out.write(f"{section}.{key}={fmt_value(cfg.values[section][key])}\n")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
