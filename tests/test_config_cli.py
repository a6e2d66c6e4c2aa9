import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_detnet import config as config_module
from ris_detnet.channel import FadingParams
from ris_detnet.cli import build_parser, main
from ris_detnet.config import (SCHEMA, ConfigError, config_hash, default_config,
                               dump_config, load_config, load_config_text)
from ris_detnet.fbc import SecrecyParams
from ris_detnet.mellin import ArrivalModel

REFERENCE_CFG = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"

SMALL = """
[topology]
n_users = 2
n_elements = 8

[arrival]
lambda_pkts = 0.08
pkt_bits = 16

[budget]
n_max = 256

[delay]
t_min = 2
t_max = 12

[agent]
episodes = 2
warmup = 20
epsilon_decay_steps = 50

[env]
episode_steps = 10

[run]
seed = 3
"""


# ------------------------------------------------------------- config

def test_empty_file_gives_reference_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg.get("topology", "ap_pos") == (0.0, 20.0)
    assert cfg.get("topology", "ris_pos") == (50.0, 20.0)
    assert cfg.get("topology", "eve_pos") == (50.0, 0.0)
    assert cfg.get("topology", "user_radius") == 2.0
    assert cfg.get("fading", "pl0_db") == -30.0
    assert cfg.get("fading", "alpha_direct") == 4.0
    assert cfg.get("fading", "alpha_ris") == 2.2
    assert cfg.get("fading", "rician_k_r") == 3.0
    assert cfg.get("fading", "noise_power_dbm") == -85.0
    assert cfg.get("secrecy", "epsilon_e") == 2e-6
    assert config_hash(cfg) == config_hash(default_config())


def test_invalid_window_names_section():
    with pytest.raises(ConfigError, match="delay"):
        load_config_text("[delay]\nt_min = 5\nt_max = 3\n")


def test_unknown_key_and_section_rejected():
    for text in ("[delay]\nt_mni = 5\n", "[delay]\nslot_ms = 1.0\n",
                 "[agent]\ncheckpoint_every = 50\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_text(text)
    # the H(s) tolerances are fixed in mellin.QUADRATURE_PROFILES
    for text in ("[delays]\nt_min = 5\n",
                 "[quadrature.train]\ngrid_points = 50\n",
                 "[quadrature.eval]\ngolden_iters = 60\n",
                 "[quadrature.train]\nouter_truncation_mult = 40\n",
                 "[quadrature.eval]\ninner_truncation_mult = 40\n",
                 "[quadrature.eval]\nrel_tol = 1e-6\n"):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config_text(text)


def test_type_mismatch_diagnostic():
    with pytest.raises(ConfigError, match=r"\[budget\] n_max"):
        load_config_text("[budget]\nn_max = many\n")


def test_reference_cfg_equals_defaults():
    # the file's header promises that every key it shows is the default
    assert config_hash(load_config(str(REFERENCE_CFG))) == config_hash(default_config())
    # ... and it shows every key, once
    shown, section = [], None
    for line in REFERENCE_CFG.read_text().splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            shown.append((section, line.split("=")[0].strip()))
    assert sorted(shown) == sorted((s, k) for s, keys in SCHEMA.items() for k in keys)


def test_schema_defaults_equal_model_defaults():
    def defaults(section):
        return {key: spec[1] for key, spec in SCHEMA[section].items()}

    assert defaults("fading") == dataclasses.asdict(FadingParams())
    secrecy = SecrecyParams()
    assert defaults("secrecy") == {"epsilon_e": secrecy.epsilon_e,
                                   "sigma_leak": secrecy.sigma_leak}
    variant = {f.name: f.default for f in dataclasses.fields(ArrivalModel)}["variant"]
    assert defaults("arrival")["variant"] == variant


HOSTILE = [
    ("[arrival]\nlambda_pkts = nan\n", "[arrival] lambda_pkts"),
    ("[env]\nviolation_penalty = nan\n", "[env] violation_penalty"),
    ("[agent]\nalpha = nan\n", "[agent] alpha"),
    ("[budget]\np_max = inf\n", "[budget] p_max"),
    ("[budget]\nn_max = inf\n", "[budget] n_max"),
    ("[agent]\ntarget_sync = 0\n", "[agent] target_sync"),
    ("[agent]\nbuffer_capacity = 0\n", "[agent] buffer_capacity"),
    ("[agent]\nbatch_size = 0\n", "[agent] batch_size"),
    ("[agent]\nepisodes = 0\n", "[agent] episodes"),
    ("[agent]\neval_episodes = 0\n", "[agent] eval_episodes"),
    ("[agent]\nalgo = dqn\ncbl_levels = 0\n", "[agent] cbl_levels"),
    ("[agent]\nhidden = 8 0\n", "[agent] hidden"),
    ("[env]\nepisode_steps = 0\n", "[env] episode_steps"),
    # auto ceiling n_max / n_users = 8 lies below n_floor = 16
    ("[topology]\nn_users = 2\n[budget]\nn_max = 16\n", "[codebook] n_ceiling"),
    ("[topology]\ncarrier_wavelength = 0\n", "[topology] carrier_wavelength"),
    ("[topology]\nn_elements = -1\n", "[topology] n_elements"),
    ("[topology]\nris_pos = 0 20\n", "[topology]"),     # the RIS on the AP
    # 4 codewords by default
    ("[allocation]\ncodeword = 4\n", "[allocation] codeword = 4"),
    ("[allocation]\ncodeword = -1\n", "[allocation] codeword = -1"),
    ("[env]\nviolation_penalty = -0.1\n", "[env] violation_penalty = -0.1"),
]


@pytest.mark.parametrize("text,where", HOSTILE, ids=[w for _, w in HOSTILE])
def test_hostile_config_is_config_error(text, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config_text(text)


def test_buffer_must_hold_the_first_batch():
    # the auto warmup is max(batch_size, 500) stored transitions
    for text in ("buffer_capacity = 200\n", "warmup = 64\nbuffer_capacity = 63\n",
                 "warmup = 1\nbatch_size = 64\nbuffer_capacity = 63\n"):
        with pytest.raises(ConfigError, match=re.escape("[agent] buffer_capacity")):
            load_config_text(f"[agent]\n{text}")
    for text in ("buffer_capacity = 500\n", "warmup = 64\nbuffer_capacity = 64\n",
                 "warmup = 1\nbatch_size = 64\nbuffer_capacity = 64\n"):
        load_config_text(f"[agent]\n{text}")


FLOAT_KEYS = [(section, key, parser) for section, keys in SCHEMA.items()
              for key, (parser, _) in keys.items()
              if parser in (config_module._parse_float, config_module._parse_auto_float,
                            config_module._parse_pair)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(entry=st.sampled_from(FLOAT_KEYS), bad=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_float_is_config_error(entry, bad):
    section, key, parser = entry
    text = f"0 {bad}" if parser is config_module._parse_pair else bad
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        load_config_text(f"[{section}]\n{key} = {text}\n")


def test_round_trip_hash_stable():
    cfg = load_config_text(SMALL)
    text = dump_config(cfg)
    again = load_config_text(text)
    assert config_hash(cfg) == config_hash(again)
    assert dump_config(again) == text


def test_set_by_path():
    cfg = default_config()
    cfg.set_by_path("delay.t_min", "4")
    assert cfg.get("delay", "t_min") == 4
    cfg.set_by_path("budget.p_max", 2.5)
    assert cfg.get("budget", "p_max") == 2.5
    with pytest.raises(ConfigError):
        cfg.set_by_path("delay.bogus", "1")
    with pytest.raises(ConfigError):
        cfg.set_by_path("nodots", "1")
    # a swept value is parsed and checked as a file value is
    for value in ("nan", "many"):
        with pytest.raises(ConfigError, match=r"\[arrival\] lambda_pkts"):
            cfg.set_by_path("arrival.lambda_pkts", value)


def test_auto_values():
    cfg = default_config()
    assert cfg.get("fading", "eve_mean_snr") is None
    assert cfg.n_ceiling == cfg.get("budget", "n_max") / cfg.get("topology", "n_users")
    cfg.values["codebook"]["n_ceiling"] = 96.0
    assert cfg.n_ceiling == 96.0
    assert cfg.warmup_transitions == 500
    cfg.values["agent"]["warmup"] = 64.0
    assert cfg.warmup_transitions == 64


# ------------------------------------------------------------- cli

def write_cfg(tmp_path, text=SMALL, out="out"):
    path = tmp_path / "scenario.cfg"
    path.write_text(text + f"\nout_dir = {tmp_path / out}\n"
                    if "[run]" in text else text)
    return str(path)


def test_cli_analyze_deterministic_bytes(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "analyze.csv").read_bytes() == (out_b / "analyze.csv").read_bytes()


def test_cli_analyze_matches_library(tmp_path):
    from ris_detnet.cli import analyze_rows
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "analyze.csv").read_text().splitlines()
    header = lines[2].split(",")
    row0 = dict(zip(header, lines[3].split(",")))
    cfg = load_config(str(cfg_path))
    _, rows = analyze_rows(cfg)
    assert float(row0["varpi"]) == pytest.approx(rows[0]["varpi"], abs=1e-12)


def test_cli_analyze_degenerate_tmin(tmp_path):
    text = SMALL.replace("t_min = 2", "t_min = 0").replace("t_max = 12", "t_max = 6")
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "analyze.csv").read_text().splitlines()
    header = lines[2].split(",")
    for line in lines[3:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["varpi"]) == pytest.approx(
            1.0 - float(row["bound_tmax"]), abs=1e-12)
        assert float(row["bound_tmin"]) == 1.0


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[delay]\nt_min = 9\nt_max = 3\n")
    assert main(["analyze", "--config", str(bad), "--out", str(tmp_path)]) == 1


# the CLI under an address-space cap of sys.argv[1] bytes
CAPPED_CLI = """
import resource, runpy, sys
cap = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
runpy.run_module("ris_detnet", run_name="__main__")
"""


def run_cli(argv, address_cap=None):
    """The CLI in a child process, optionally with a capped address space."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    head = (["-m", "ris_detnet"] if address_cap is None
            else ["-c", CAPPED_CLI, str(address_cap)])
    return subprocess.run([sys.executable, *head, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command,section,line", [
    ("analyze", "[topology]", "carrier_wavelength = 0"),
    ("train", "[agent]", "target_sync = 0")])
def test_cli_hostile_config_exits_cleanly(tmp_path, command, section, line):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace(f"{section}\n", f"{section}\n{line}\n"))
    proc = run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_train_with_a_buffer_below_the_warmup_is_config_error(tmp_path, capsys):
    # 200 slots under the auto warmup of 500: every loss would be NaN and
    # the checkpoint would hold the untrained nets
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace("warmup = 20\n", "buffer_capacity = 200\n"))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "[agent] buffer_capacity" in err
    assert not (out / "checkpoint.json").exists()
    assert not (out / "train_log.csv").exists()


@pytest.mark.parametrize("text,argv,key", [
    ("[allocation]\npower = -1\n", [], "[allocation] power"),
    ("[allocation]\ncbl = 0.5\n", [], "[allocation] cbl"),
    ("[run]\nseed = -1\n", [], "[run] seed"),
    ("", ["--seed", "-1"], "--seed"),
    ("[codebook]\nphase_mode = quantized\nphase_bits = 80\n", [], "[codebook] phase_bits"),
    ("[topology]\nelement_spacing = -1\n", [], "[topology] element_spacing"),
    ("[fading]\npl0_db = -4000\n", [], "[fading] pl0_db"),
], ids=["power", "cbl", "seed", "seed-flag", "phase_bits", "element_spacing", "pl0_db"])
def test_cli_analyze_hostile_value_is_config_error(tmp_path, capsys, text, argv, key):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(text)
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


def test_cli_analyze_huge_user_count_is_config_error(tmp_path):
    # an n_max large enough to keep n_ceiling >= n_floor lets a huge n_users
    # past the ceiling check, so only its own cap stops the allocation
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text("[topology]\nn_users = 1e12\n[budget]\nn_max = 1e14\n")
    proc = run_cli(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                   address_cap=1 << 30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error") and "[topology] n_users" in proc.stderr
    assert "Traceback" not in proc.stderr


# one to five keys at a boundary value on a tiny scenario: analyze exits 0
# with finite cells (s_max may be infinite only for a vacuous bound) or 1
# with a config error; a huge value runs only in a child process with a
# 1 GiB address space
TINY = {"topology": {"n_users": "1", "n_elements": "4"}}
HUGE = "1e12"
BOUNDARY_CASES = [(section, key, value)
                  for section, keys in SCHEMA.items()
                  for key, (parser, _) in keys.items()
                  for value in ("0", "-1", "0.5", HUGE) + getattr(parser, "options", ())]


def boundary_scenario(*cases):
    """TINY with each (section, key, value) case set."""
    sections = {s: dict(kv) for s, kv in TINY.items()}
    for section, key, value in cases:
        pair = SCHEMA[section][key][0] is config_module._parse_pair
        sections.setdefault(section, {})[key] = f"{value} {value}" if pair else value
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for s, kv in sections.items())


def run_analyze(cfg_path, out, in_child):
    argv = ["analyze", "--config", str(cfg_path), "--out", str(out)]
    if in_child:
        proc = run_cli(argv, address_cap=1 << 30)
        return proc.returncode, proc.stderr
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(BOUNDARY_CASES))
@example(case=("fading", "noise_power_dbm", HUGE))
@example(case=("topology", "n_elements", HUGE))
@example(case=("codebook", "n_power_levels", HUGE))
@example(case=("codebook", "n_codewords", HUGE))
def test_cli_analyze_one_key_boundary_value_exits_cleanly(case):
    assert_analyze_exits_cleanly(case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases=st.tuples(st.sampled_from(BOUNDARY_CASES), st.sampled_from(BOUNDARY_CASES))
       .filter(lambda pair: pair[0][:2] != pair[1][:2]))
@example(cases=(("fading", "alpha_ris", HUGE), ("fading", "alpha_direct", HUGE)))
def test_cli_analyze_two_key_boundary_values_exit_cleanly(cases):
    assert_analyze_exits_cleanly(*cases)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases=st.tuples(*[st.sampled_from(BOUNDARY_CASES)] * 3)
       .filter(lambda cases: len({case[:2] for case in cases}) == 3))
def test_cli_analyze_three_key_boundary_values_exit_cleanly(cases):
    assert_analyze_exits_cleanly(*cases)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases=st.tuples(*[st.sampled_from(BOUNDARY_CASES)] * 4)
       .filter(lambda cases: len({case[:2] for case in cases}) == 4))
def test_cli_analyze_four_key_boundary_values_exit_cleanly(cases):
    assert_analyze_exits_cleanly(*cases)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases=st.tuples(*[st.sampled_from(BOUNDARY_CASES)] * 5)
       .filter(lambda cases: len({case[:2] for case in cases}) == 5))
def test_cli_analyze_five_key_boundary_values_exit_cleanly(cases):
    assert_analyze_exits_cleanly(*cases)


def assert_analyze_exits_cleanly(*cases):
    """analyze on TINY with the cases set exits cleanly (see above)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "s.cfg"
        cfg_path.write_text(boundary_scenario(*cases))
        code, err = run_analyze(cfg_path, Path(tmp) / "o",
                                in_child=any(value == HUGE for _, _, value in cases))
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("config error")
            return
        assert code == 0, err
        lines = (Path(tmp) / "o" / "analyze.csv").read_text().splitlines()[2:]
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for col in ("varpi", "bound_tmin", "bound_tmax", "s_star_tmin", "s_star_tmax",
                    "quadrature_error_estimate"):
            assert math.isfinite(float(row[col])), (col, row)
        assert math.isfinite(float(row["s_max"])) or "vacuous" in row["clamped_flags"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "{tmp}/missing.cfg"],
    ["evaluate", "--config", "{small}", "--checkpoint", "{tmp}/missing.json"],
    ["evaluate", "--config", "{small}", "--checkpoint", "{tmp}/garbled.json"],
    ["evaluate", "--config", "{small}", "--checkpoint", "{tmp}/list.json"],
    ["evaluate", "--config", "{small}", "--checkpoint", "{tmp}/other.json"],
], ids=["missing-config", "missing-checkpoint", "non-json-checkpoint",
        "non-object-checkpoint", "other-config-checkpoint"])
def test_cli_input_file_mistake_is_config_error(tmp_path, capsys, argv):
    small = tmp_path / "s.cfg"
    small.write_text(SMALL)
    (tmp_path / "garbled.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "other.json").write_text(json.dumps({"config_hash": "0" * 16}))
    argv = [a.format(tmp=tmp_path, small=small) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error")


def test_cli_sweep_manifest_in_payload_order(tmp_path):
    # the first point is the slowest (4096 RIS elements), so two workers
    # finish the other two first
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace("[run]\n", "[run]\nworkers = 2\n"))
    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--param", "topology.n_elements", "--values", "4096,1,2"]) == 0
        manifests.append((out / "sweep_manifest.json").read_bytes())
    assert json.loads(manifests[0])["completed"] == [
        {"value": v, "rep": 0} for v in ("4096", "1", "2")]
    assert manifests[0] == manifests[1]


def test_cli_simulate_model_sampler_dominates(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--packets", "20000", "--sampler", "model", "--strict"])
    assert code == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "user_id"
    assert len(lines) == 3 + 2 * 2    # two users x two horizons


@pytest.mark.parametrize("flag,value", [("--packets", "-5"), ("--packets", "0"),
                                        ("--horizon", "300"), ("--horizon", "-1")])
def test_cli_simulate_rejects_counts_without_packets(tmp_path, capsys, flag, value):
    # a count that leaves no packet to analyse is a config error naming its
    # flag, not a truncated sample, a NaN row or a numpy traceback
    cfg = write_cfg(tmp_path)
    rc = main(["simulate", "--config", cfg, "--packets", "2000", flag, value])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulate.csv").exists()


def test_cli_simulate_no_analysed_packet_is_config_error(tmp_path, capsys):
    # one analysed slot at lambda = 0.08: user 0 gets no packet at this seed
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--horizon", "401"]) == 1
    assert "--horizon" in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulate.csv").exists()


def test_cli_simulate_reports_a_short_sample(tmp_path, capsys):
    # --horizon 5000 holds about 360 analysed packets per user at lambda = 0.08
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--packets", "2000",
                 "--horizon", "5000"]) == 0
    short = [line for line in capsys.readouterr().out.splitlines()
             if "packets asked for" in line]
    assert len(short) == 2
    for k, line in enumerate(short):
        assert line.startswith(f"user {k}: analysed ")
        assert "of the 2000 packets" in line and "--horizon" in line
    assert main(["simulate", "--config", cfg, "--packets", "2000"]) == 0
    assert "packets asked for" not in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_cli_simulate_searches_one_edge_per_user(tmp_path, monkeypatch):
    # both horizons of a user reuse the one stability edge
    from ris_detnet import mellin
    original, calls = mellin.stability_smax, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mellin, "stability_smax", counted)
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--packets", "2000", "--sampler", "model"]) == 0
    assert len(calls) == 2      # two users


def test_cli_simulate_bounds_equal_analyze(tmp_path):
    # simulate and analyze score the fixed allocation through the one path
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                 "--packets", "2000", "--sampler", "model"]) == 0

    def rows(path):
        lines = path.read_text().splitlines()
        return [dict(zip(lines[2].split(","), line.split(","))) for line in lines[3:]]

    analyzed = {r["user_id"]: r for r in rows(tmp_path / "a" / "analyze.csv")}
    simulated = rows(tmp_path / "s" / "simulate.csv")
    assert len(simulated) == 2 * len(analyzed) == 4
    for r in simulated:
        a = analyzed[r["user_id"]]
        column = "bound_tmin" if r["t"] == a["t_min"] else "bound_tmax"
        assert r["t"] in (a["t_min"], a["t_max"])
        assert r["bound"] == a[column]


def test_cli_unbracketed_stability_edge_exit_code(tmp_path, monkeypatch, capsys):
    from ris_detnet import mellin
    monkeypatch.setattr(mellin, "MAX_SEARCH_STEPS", 1)
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "stability edge not bracketed" in capsys.readouterr().err


def test_cli_unbracketed_edge_on_floor_bounds(tmp_path, monkeypatch, capsys):
    # on the reference config both bounds sit at the floor and need no edge:
    # with the edge search out of probes, analyze, which reports s_max,
    # exits 2, while simulate reads no s_max and reports the same bounds
    from ris_detnet import mellin
    ref = ["--config", str(REFERENCE_CFG)]
    sim = ["--packets", "2000", "--sampler", "model"]
    assert main(["simulate", *ref, "--out", str(tmp_path / "want"), *sim]) == 0
    monkeypatch.setattr(mellin, "MAX_SEARCH_STEPS", 1)
    capsys.readouterr()
    assert main(["analyze", *ref, "--out", str(tmp_path / "a")]) == 2
    assert "stability edge not bracketed" in capsys.readouterr().err
    assert main(["simulate", *ref, "--out", str(tmp_path / "got"), *sim]) == 0
    want, got = ((tmp_path / d / "simulate.csv").read_text() for d in ("want", "got"))
    assert got == want


def test_cli_sweep_single_value_matches_analyze(tmp_path):
    from ris_detnet.cli import analyze_rows
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--param", "delay.t_min", "--values", "2"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    row = dict(zip(lines[2].split(","), lines[3].split(",")))
    cfg = load_config(str(cfg_path))
    _, rows = analyze_rows(cfg)
    want = float(np.mean([r["varpi"] for r in rows]))
    assert float(row["metric"]) == pytest.approx(want, abs=1e-12)
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert manifest["completed"] == [{"value": "2", "rep": 0}]


def test_cli_sweep_codeword_out_of_range_runs_no_point(tmp_path, capsys):
    # the bad value is the second one, and one worker runs the points in
    # order, so a sweep that checked it only when its point ran would have
    # run and recorded the first
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace("[run]\n", "[run]\nworkers = 1\n"))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--param", "allocation.codeword", "--values", "0,9"]) == 1
    assert capsys.readouterr().err.startswith("config error: [allocation] codeword")
    assert not (out / "sweep_manifest.json").exists()


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_sweep_rejects_reps_below_one(tmp_path, capsys, reps):
    # no rep of any point would run, leaving a sweep.csv of no rows
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--param", "delay.t_min", "--values", "2,3", "--reps", reps]) == 1
    assert capsys.readouterr().err.startswith("config error: --reps")
    assert not (out / "sweep.csv").exists()


def test_cli_sweep_tmin_monotone(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--param", "delay.t_min", "--values", "2,4,6,8"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[2].split(",")
    metrics = {}
    for line in lines[3:]:
        row = dict(zip(header, line.split(",")))
        metrics[float(row["value"])] = float(row["metric"])
    ordered = [metrics[v] for v in sorted(metrics)]
    assert all(b <= a + 1e-9 for a, b in zip(ordered, ordered[1:]))
    # svg exists and is well-formed with a declared viewBox
    tree = ET.parse(out / "sweep.svg")
    assert "viewBox" in tree.getroot().attrib


def test_cli_svg_deterministic(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--param", "delay.t_max", "--values", "6,10"]) == 0
    assert (out_a / "sweep.svg").read_bytes() == (out_b / "sweep.svg").read_bytes()
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


def test_cli_train_then_evaluate_round_trip(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "train_log.csv").exists()
    assert (out / "reward_curve.svg").exists()
    ckpt = out / "checkpoint.json"
    assert ckpt.exists()
    out2 = tmp_path / "e1"
    out3 = tmp_path / "e2"
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out2),
                 "--checkpoint", str(ckpt)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out3),
                 "--checkpoint", str(ckpt)]) == 0
    assert (out2 / "evaluate.csv").read_bytes() == (out3 / "evaluate.csv").read_bytes()
    # a version-1 checkpoint holds a critic whose parameter inputs meant
    # something else (all actions' parameters in every pass), a version-3
    # one holds lists of nets and a version-4 one per-layer nets: all are
    # refused as input mistakes
    for version in (1, 3, 4):
        stale = json.loads(ckpt.read_text())
        stale["version"] = version
        stale_path = tmp_path / f"v{version}.json"
        stale_path.write_text(json.dumps(stale))
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out3),
                     "--checkpoint", str(stale_path)]) == 1


TINY_TRAIN = {"episodes": "1", "warmup": "4", "batch_size": "4", "hidden": "8 8",
              "eval_episodes": "1"}


def tiny_scenario(**agent) -> str:
    """SMALL with one 5-step episode on 8x8 nets that learn from step 4."""
    lines = "".join(f"{k} = {v}\n" for k, v in {**TINY_TRAIN, **agent}.items())
    return (SMALL.replace("episodes = 2\n", "").replace("warmup = 20\n", "")
            .replace("[agent]\n", "[agent]\n" + lines)
            .replace("episode_steps = 10", "episode_steps = 5")
            .replace("[run]\n", "[run]\nworkers = 1\n"))


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A scenario file and a SID-PDQN checkpoint trained on it, with live
    Adam moments."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg_path = tmp / "s.cfg"
    cfg_path.write_text(tiny_scenario())
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "o")]) == 0
    blob = json.loads((tmp / "o" / "checkpoint.json").read_text())
    assert all(opt["m"] is not None for opt in blob["optimizers"].values())
    return cfg_path, blob


def _mt19937_state():
    state = np.random.MT19937(0).state
    state["state"]["key"] = state["state"]["key"].tolist()
    return state


def _nan_critics(blob):
    for name in ("critic", "critic_target"):
        blob["nets"][name][3] = math.nan


MALFORMED_CHECKPOINTS = {
    "net-row-short": lambda b: b["nets"]["critic"].pop(),
    "moment-row-short": lambda b: b["optimizers"]["critic"]["m"].pop(),
    "net-deleted": lambda b: b["nets"].pop("critic_target"),
    "moments-are-3": lambda b: b["optimizers"]["actor"].update(m=3, v=3),
    "one-moment-null": lambda b: b["optimizers"]["actor"].update(v=None),
    "other-generator": lambda b: b.update(rng_state=_mt19937_state()),
    "nan-critics": _nan_critics,
    "fractional-step-count": lambda b: b["optimizers"]["critic"].update(step_count=2.5),
    "negative-global-step": lambda b: b.update(global_step=-1),
    "no-optimizers": lambda b: b.pop("optimizers"),
}


@pytest.mark.parametrize("mutate", MALFORMED_CHECKPOINTS.values(),
                         ids=MALFORMED_CHECKPOINTS.keys())
def test_cli_malformed_checkpoint_is_config_error(tmp_path, capsys, tiny_checkpoint,
                                                  mutate):
    cfg_path, blob = tiny_checkpoint
    blob = json.loads(json.dumps(blob))
    mutate(blob)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "o"
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: checkpoint") and "Traceback" not in err
    assert not (out / "evaluate.csv").exists()


@pytest.mark.parametrize("param,values,mode", [
    ("codebook.phase_mode", "aligned,random", "analyze"),
    ("agent.algo", "sid_pdqn,dqn,random", "train")])
def test_cli_sweep_charts_text_values_in_the_order_given(tmp_path, capsys, param,
                                                         values, mode):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(tiny_scenario())
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--param", param, "--values", values, "--mode", mode]) == 0
    given = values.split(",")
    lines = capsys.readouterr().out.splitlines()
    ylabel = "mean varpi" if mode == "analyze" else "eval reward"
    assert [line.split(":")[0] for line in lines[:-1]] == [f"{param}={v}" for v in given]
    assert all(f": {ylabel}=" in line for line in lines[:-1])
    csv_values = [line.split(",")[1] for line in
                  (out / "sweep.csv").read_text().splitlines()[3:]]
    assert csv_values == given
    # one x tick per value, labelled by its text, left to right in the order given
    ticks = {t.text: float(t.get("x")) for t in ET.parse(out / "sweep.svg").iter(
        "{http://www.w3.org/2000/svg}text") if t.text in given}
    assert sorted(ticks, key=ticks.get) == given


def test_cli_sweep_train_scores_random_by_evaluate(tmp_path):
    # every algorithm's sweep metric is the greedy eval reward after training
    from ris_detnet.cli import _train_one
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace("[agent]\n", "[agent]\nalgo = random\n"))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--mode", "train",
                 "--param", "agent.episodes", "--values", "2"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    row = dict(zip(lines[2].split(","), lines[3].split(",")))
    cfg = load_config(str(cfg_path))
    seed = cfg.get("run", "seed")
    agent, _ = _train_one(cfg, seed)
    want, _ = agent.evaluate(cfg.get("agent", "eval_episodes"),
                             cfg.get("env", "episode_steps"))
    assert float(row["metric"]) == want


@pytest.mark.parametrize("algo", ["sid_pdqn", "dqn", "random"])
def test_cli_train_log_deterministic(tmp_path, algo):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace("[agent]\n", f"[agent]\nalgo = {algo}\n"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out_a / "train_log.csv").read_bytes() == (out_b / "train_log.csv").read_bytes()
    assert (out_a / "checkpoint.json").exists() == (algo != "random")


def test_cli_evaluate_random_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL.replace("[agent]\n", "[agent]\nalgo = random\n"))
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "[agent] algo" in capsys.readouterr().err
    assert not (tmp_path / "o" / "evaluate.csv").exists()


@pytest.mark.parametrize("argv", [
    ["train"], ["evaluate"],
    ["sweep", "--mode", "train", "--param", "agent.episodes", "--values", "1,2"]],
    ids=["train", "evaluate", "sweep"])
def test_cli_dqn_per_user_networks_is_config_error(tmp_path, capsys, argv):
    # every learner keeps one network set shared by all users and bootstraps
    # through its target net, so the keys that switched either are unknown
    for line in ("per_user_networks = true", "use_target = false"):
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(SMALL.replace("[agent]\n", f"[agent]\nalgo = dqn\n{line}\n"))
        out = tmp_path / "o"
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 1
        key = line.split()[0]
        assert f"unknown key '{key}' in section [agent]" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("argv", [["analyze"], ["train"], ["evaluate"]],
                         ids=["analyze", "train", "evaluate"])
def test_cli_deleted_learner_fork_keys_are_config_error(tmp_path, capsys, argv):
    # the state always carries Eve's features and SID-PDQN always trains on
    # the paper's actor loss, so the keys that switched either are unknown
    for section, line in (("env", "observe_eve = false"),
                          ("agent", "actor_loss_mode = standard_pdqn")):
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(SMALL.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        out = tmp_path / "o"
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 1
        key = line.split()[0]
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


def test_strict_only_on_simulate():
    parser = build_parser()
    assert parser.parse_args(["simulate", "--strict"]).strict
    for argv in (["analyze"], ["train"], ["evaluate"],
                 ["sweep", "--param", "delay.t_min", "--values", "2"]):
        parser.parse_args(argv)
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--strict"])


def test_cli_output_embeds_hash_and_seed(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "analyze.csv").read_text().splitlines()
    cfg = load_config(str(cfg_path))
    assert lines[0] == f"# config_hash={config_hash(cfg)}"
    assert lines[1] == "# seed=3"
