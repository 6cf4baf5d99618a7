"""Command-line front end: subcommands, config precedence, manifests."""

import configparser
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nrsim
from nrsim import (
    AntennaConfig,
    ChannelConfig,
    CodebookMode,
    Scenario,
    SweepConfig,
    Type2Config,
    build_type1_codebook,
    compare_modes,
    oversampling_factors,
    write_cqi_hist_csv,
    write_ri_hist_csv,
    write_sweep_csv,
)
from nrsim.cli import _DEFAULTS, main
from oracles import per_entry_precoder

README = Path(__file__).resolve().parent.parent / "README.md"


def _read(path):
    return path.read_bytes()


@pytest.fixture()
def small_ini(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(
        "[channel]\n"
        "subbands = 3\n"
        "rx = 2\n"
        "[sweep]\n"
        "snr = 0:10:10\n"
        "slots = 60\n"
    )
    return path


class TestParsing:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["overhead", "--does-not-exist"]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("nrsim ")


class TestOverheadCommand:
    def test_type1_rank1_worked_example(self, capsys):
        assert main(["overhead", "--codebook", "type1", "--rank", "1"]) == 0
        out = capsys.readouterr().out
        assert "total,6" in out
        assert "i11,4" in out

    def test_type1_rank2(self, capsys):
        assert main(["overhead", "--codebook", "type1", "--rank", "2"]) == 0
        assert "total,7" in capsys.readouterr().out

    def test_type2_rank1(self, capsys):
        assert main(["overhead", "--codebook", "type2", "--rank", "1"]) == 0
        assert "total,60" in capsys.readouterr().out

    def test_type2_small_panel(self, tmp_path, capsys):
        ini = tmp_path / "panel.ini"
        ini.write_text("[antenna]\nn1 = 2\nn2 = 1\n")
        argv = ["overhead", "--config", str(ini), "--codebook", "type2",
                "--rank", "1", "--beams", "2", "--npsk", "4"]
        assert main(argv) == 0
        assert "total,27" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "oh"
        assert main(["overhead", "--codebook", "type1", "--rank", "1",
                     "--out", str(out)]) == 0
        text = (out / "overhead.csv").read_text()
        assert text.splitlines()[0] == "index,bits"
        assert "total,6" in text
        assert (out / "manifest.json").exists()

    def test_bad_rank(self, capsys):
        assert main(["overhead", "--codebook", "type1", "--rank", "9"]) == 2
        assert "rank" in capsys.readouterr().err


class TestSweepCommand:
    def test_end_to_end(self, small_ini, tmp_path, capsys):
        out = tmp_path / "run1"
        argv = ["sweep", "--config", str(small_ini), "--slots", "25",
                "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        for name in ("sweep.csv", "ri_hist.csv", "cqi_hist.csv", "manifest.json"):
            assert (out / name).exists()
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == "snr_db,mode,mean_se,mean_mbps,mean_overhead_bits,fail_frac"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {
            "tool", "version", "command", "timestamp", "seed", "config", "outputs",
        }
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 5
        # Flag overrides the file value; the file overrides the default.
        assert manifest["config"]["sweep.slots"] == 25
        assert manifest["config"]["channel.subbands"] == 3

    def test_manifest_rerun_reproduces(self, small_ini, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        base = ["sweep", "--config", str(small_ini), "--slots", "25",
                "--seed", "5", "--out", str(first)]
        assert main(base) == 0
        rerun = ["sweep", "--config", str(first / "manifest.json"), "--out", str(second)]
        assert main(rerun) == 0
        for name in ("sweep.csv", "ri_hist.csv", "cqi_hist.csv"):
            assert _read(first / name) == _read(second / name)

    def test_repeat_seed_identical(self, small_ini, tmp_path, capsys):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            argv = ["sweep", "--config", str(small_ini), "--slots", "20",
                    "--seed", "7", "--out", str(out)]
            assert main(argv) == 0
        assert _read(outs[0] / "sweep.csv") == _read(outs[1] / "sweep.csv")

    def test_multi_mode_matches_api(self, small_ini, tmp_path, capsys):
        out = tmp_path / "multi"
        argv = ["sweep", "--config", str(small_ini), "--codebook", "type1,type2,svd",
                "--slots", "20", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("winner") == 2
        antenna = AntennaConfig(4, 1)
        scenario = Scenario(
            antenna=antenna,
            channel=ChannelConfig(num_tx_ports=antenna.num_ports, num_rx_ports=2,
                                  num_subbands=3),
            type2=Type2Config(num_beams=4, n_psk=8),
        )
        cfgs = [SweepConfig(scenario=scenario, snr_points_db=(0.0, 10.0), num_slots=20,
                            feedback_delay_slots=1, codebook_mode=mode, seed=5)
                for mode in (CodebookMode.TYPE1, CodebookMode.TYPE2, CodebookMode.SVD_IDEAL)]
        results = compare_modes(cfgs).results
        api = tmp_path / "api"
        api.mkdir()
        write_sweep_csv(results, api / "sweep.csv")
        write_ri_hist_csv(results, api / "ri_hist.csv")
        write_cqi_hist_csv(results, api / "cqi_hist.csv")
        for name in ("sweep.csv", "ri_hist.csv", "cqi_hist.csv"):
            assert _read(out / name) == _read(api / name)

    @pytest.mark.parametrize("modes", ["type1,bogus", "type1,type1"])
    def test_bad_mode_list(self, modes, capsys):
        assert main(["sweep", "--codebook", modes]) == 2
        assert "sweep.codebook" in capsys.readouterr().err

    def test_zero_slots(self, capsys):
        assert main(["sweep", "--slots", "0"]) == 2
        assert "slots" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["abc", "0:1:inf", "-inf:1:0", "nan", "0:nan:10"])
    def test_bad_snr_spec(self, spec, capsys):
        assert main(["sweep", f"--snr={spec}"]) == 2
        assert "sweep.snr" in capsys.readouterr().err

    def test_descending_snr_rejected(self, capsys):
        assert main(["sweep", "--snr", "10:5:0"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sweep]\nslotz = 10\n")
        assert main(["sweep", "--config", str(ini)]) == 2
        assert "sweep.slotz" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "doppler_hz = nan", "delay_spread_ns = inf", "subband_spacing_hz = nan",
        "slot_duration_s = -inf", "pdp_file = {profile}",
    ])
    def test_non_finite_channel_setting(self, setting, tmp_path, capsys):
        profile = tmp_path / "profile.txt"
        profile.write_text("0 0\n100 nan\n")
        ini = tmp_path / "bad.ini"
        ini.write_text("[channel]\n" + setting.format(profile=profile) + "\n")
        assert main(["sweep", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_cqi_table(self, tmp_path, capsys):
        table = tmp_path / "cqi.csv"
        table.write_text("cqi_index,efficiency,threshold_db\n1,0.15,-7.5\n2,0.23,nan\n")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[csi]\ncqi_table = {table}\n")
        args = ["--config", str(ini), "--slots", "2", "--snr", "0", "--out", str(tmp_path / "out")]
        assert main(["sweep", *args]) == 2
        assert "threshold_db" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["2,0.2", "2,abc,1.0", "2.5,0.2,1.0", "2,0.2,-5,99"])
    def test_malformed_cqi_table_row(self, row, tmp_path, capsys):
        table = tmp_path / "cqi.csv"
        table.write_text(f"cqi_index,efficiency,threshold_db\n1,0.15,-7.5\n{row}\n")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[csi]\ncqi_table = {table}\n")
        args = ["--config", str(ini), "--slots", "2", "--snr", "0", "--out", str(tmp_path / "out")]
        assert main(["sweep", *args]) == 2
        assert f"{table}:3" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "none.ini"
        assert main(["sweep", "--config", str(missing)]) == 1


# Strategies for malformed input files. Each draws a whole file as bytes.
_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8)
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999"])
_SECTION_KEY = st.sampled_from(sorted(_DEFAULTS)).map(lambda key: key.split("."))
# Numeric keys the test's flags do not override.
_NUMERIC_KEY = st.sampled_from(sorted(key for key, value in _DEFAULTS.items()
                                      if isinstance(value, (int, float)) and key != "sweep.slots"))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# A field with no separator, comment or quote character that is not a number.
_JUNK = st.text(st.characters(blacklist_categories=("C", "Z"), blacklist_characters='#,"'),
                min_size=1, max_size=8).filter(lambda text: not _is_number(text))


def _with_bad_byte(text: str):
    """text as UTF-8 with a byte that cannot occur in UTF-8 spliced in."""
    data = text.encode()
    return st.integers(0, len(data)).map(lambda i: data[:i] + b"\xff" + data[i:])


_BAD_INI = st.one_of(
    st.tuples(_SECTION_KEY, _WORD, _WORD).map(  # configparser rejects a bare '%'
        lambda t: f"[{t[0][0]}]\n{t[0][1]} = {t[1]}%{t[2]}\n"),
    _SECTION_KEY.map(lambda sk: f"{sk[1]} = 1\n"),  # no section header
    _SECTION_KEY.map(lambda sk: f"[{sk[0]}]\n{sk[1]} = 1\n{sk[1]} = 2\n"),
    st.tuples(_WORD, _WORD).filter(lambda t: ".".join(t) not in _DEFAULTS).map(
        lambda t: f"[{t[0]}]\n{t[1]} = 1\n"),
    _WORD.map(lambda word: f"[sweep]\n{word}\n"),  # neither '=' nor ':'
    st.tuples(_NUMERIC_KEY, _JUNK).map(  # a value that does not parse
        lambda t: "[{}]\n{} = {}\n".format(*t[0].split("."), t[1])),
    _WORD.map(lambda word: "{" + word),  # a manifest that is not JSON
).map(str.encode) | _with_bad_byte("[sweep]\nslots = 2\n")

_PDP_HEAD = "0 0\n"
_BAD_PDP = st.one_of(
    st.lists(_NUMBER, min_size=1, max_size=5).filter(lambda xs: len(xs) != 2).map(
        lambda xs: _PDP_HEAD + " ".join(xs) + "\n"),
    st.tuples(_JUNK, _NUMBER).map(lambda t: f"{_PDP_HEAD}{t[0]} {t[1]}\n"),
    st.tuples(_NUMBER, _JUNK).map(lambda t: f"{_PDP_HEAD}{t[0]} {t[1]}\n"),
    st.tuples(_NUMBER, _NON_FINITE).map(lambda t: f"{_PDP_HEAD}{t[0]} {t[1]}\n"),
    st.tuples(_NON_FINITE, _NUMBER).map(lambda t: f"{_PDP_HEAD}{t[0]} {t[1]}\n"),
    st.lists(st.floats(-1e6, -3240.0), min_size=1, max_size=4).map(  # all powers underflow
        lambda ps: "".join(f"{100 * i} {p!r}\n" for i, p in enumerate(ps))),
    st.floats(3090.0, 1e6).map(lambda p: f"{_PDP_HEAD}100 {p!r}\n"),  # a power overflows
    st.floats(1e160, 1e308).map(lambda d: f"{_PDP_HEAD}{d!r} 0\n"),  # the spread overflows
    st.sampled_from(["", "# comments only\n", "\n\n"]),
).map(str.encode) | _with_bad_byte(_PDP_HEAD)

_CQI_HEAD = "cqi_index,efficiency,threshold_db\n1,0.15,-7.5\n"
_BAD_CQI = st.one_of(
    st.lists(_NUMBER, min_size=1, max_size=6).filter(lambda xs: len(xs) != 3).map(
        lambda xs: _CQI_HEAD + ",".join(xs) + "\n"),
    st.tuples(st.integers(0, 2), _JUNK | _NON_FINITE).map(
        lambda t: _CQI_HEAD + ",".join(t[1] if i == t[0] else ["2", "0.2", "-5"][i]
                                       for i in range(3)) + "\n"),
    (st.integers().filter(lambda i: i != 2).map(str) | st.just("2.5")).map(
        lambda index: f"{_CQI_HEAD}{index},0.2,-5\n"),
    st.tuples(st.floats(-1.0, 0.15), st.floats(-20.0, 20.0)).map(  # efficiency not increasing
        lambda t: f"{_CQI_HEAD}2,{t[0]!r},{t[1]!r}\n"),
    st.sampled_from(["cqi_index,efficiency\n1,0.15\n", "", "index,se,thr\n1,0.15,-7.5\n"]),
).map(str.encode) | _with_bad_byte(_CQI_HEAD)


@settings(deadline=None, max_examples=150)
@given(case=st.one_of(
    _BAD_INI.map(lambda data: ("", data)),
    _BAD_PDP.map(lambda data: ("channel.pdp_file", data)),
    _BAD_CQI.map(lambda data: ("csi.cqi_table", data)),
))
@example(case=("", b"[sweep]\nsnr = 10%\n"))
@example(case=("", b'{"config": ' + b"[" * 100_000))  # nested past the recursion limit
@example(case=("channel.pdp_file", b"0 -4000\n100 -4000\n"))
@example(case=("csi.cqi_table", f"{_CQI_HEAD}2,{'1' * 200_000},-5\n".encode()))
def test_malformed_input_file_exits_2_naming_it(case):
    """A malformed config, pdp or CQI-table file is a config error (exit 2)
    that names the file, never a runtime error (exit 1) or a traceback."""
    key, data = case
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.txt"
        bad.write_bytes(data)
        config = bad
        if key:  # the bad file is named by a config key
            section, name = key.split(".")
            config = Path(tmp) / "run.ini"
            config.write_text(f"[{section}]\n{name} = {bad}\n")
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["sweep", "--config", str(config), "--slots", "2", "--snr", "0",
                         "--out", str(Path(tmp) / "out")])
    assert code == 2, err.getvalue()
    assert str(bad) in err.getvalue()


@pytest.mark.parametrize("section, key, value", [
    ("sweep", "slots", "abc"),
    ("sweep", "seed", "1.5"),
    ("channel", "doppler_hz", "fast"),
    ("sweep", "snr", "0:1"),
    ("sweep", "codebook", "type3"),
])
def test_bad_config_value_names_file_and_key(tmp_path, capsys, section, key, value):
    """A bad value read from a --config file names that file and the key; the
    same value given as a flag names only the key."""
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {config}: {section}.{key} " in capsys.readouterr().err
    if key == "snr":
        assert main(["sweep", "--config", str(config), f"--snr={value}",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}.{key} ")


@pytest.mark.parametrize("section, key, value", [
    ("channel", "doppler_hz", "inf"),
    ("antenna", "n1", "5"),
    ("type2", "beams", "9"),
    ("sweep", "feedback_delay", "5"),
])
def test_config_object_rejection_names_file_and_key(tmp_path, capsys, section, key, value):
    """A --config value that parses but that a config object rejects names
    the file and the key as well as the object's own complaint."""
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["sweep", "--config", str(config), "--slots", "2", "--snr", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}: {section}.{key}: ")


def test_unread_bad_value_still_fails(tmp_path, capsys):
    """Every --config value is typed at load, so a value that does not parse
    fails even a command that never reads its key."""
    config = tmp_path / "run.ini"
    config.write_text("[sweep]\nslots = abc\n")
    assert main(["overhead", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: sweep.slots must be an integer, got 'abc'\n")


def test_manifest_with_string_values_loads(small_ini, tmp_path, capsys):
    """Manifests hold typed values; one that holds the strings an INI file
    gives (as older manifests do) reruns to the same CSVs."""
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(small_ini), "--slots", "25", "--seed", "5",
                 "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["channel.doppler_hz"] == 5.0
    manifest["config"] = {key: str(value) for key, value in manifest["config"].items()}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    assert main(["sweep", "--config", str(old), "--out", str(second)]) == 0
    for name in ("sweep.csv", "ri_hist.csv", "cqi_hist.csv"):
        assert _read(first / name) == _read(second / name)


def test_type2_beams_beyond_panel_refused_before_manifest(tmp_path, capsys):
    """A Type II beam count the panel cannot hold exits 2, naming the file
    and its keys, before manifest.json is written."""
    config = tmp_path / "run.ini"
    config.write_text("[antenna]\nn1 = 2\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--codebook", "type1,type2",
                 "--slots", "2", "--snr", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: antenna.n1: num_beams=4 exceeds the 2 orthogonal beams\n")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, env, message", [
    (["--seed=-1"], {}, "seed must be >= 0, got -1"),
    (["--snr=-3000"], {}, "snr_points_db[0] must be in -1000..1000, got -3000.0"),
    (["--snr=3000"], {}, "snr_points_db[0] must be in -1000..1000, got 3000.0"),
    (["--snr=-10:1e-7:40"], {}, "sweep.snr has more than 10000 points"),
    ([], {"NRSIM_THREADS": "abc"}, "NRSIM_THREADS must be an integer, got 'abc'"),
    ([], {"NRSIM_THREADS": "0"}, "NRSIM_THREADS must be >= 1, got '0'"),
    ([], {"NRSIM_THREADS": "-1"}, "NRSIM_THREADS must be >= 1, got '-1'"),
])
def test_sweep_input_refused_before_manifest(tmp_path, capsys, monkeypatch, argv, env, message):
    """A negative seed, an SNR point past +/-1000 dB, an SNR grid of more
    than 10000 points and a malformed or nonpositive NRSIM_THREADS exit 2
    promptly, naming their source, before manifest.json is written."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["sweep", "--slots", "2", "--snr", "0", *argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (out / "manifest.json").exists()


def test_jakes_overflow_names_file_and_keys(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[channel]\ndoppler_hz = 1e308\nslot_duration_s = 10\n")
    assert main(["sweep", "--config", str(config), "--codebook", "svd", "--slots", "3",
                 "--snr", "0", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: {config}: channel.doppler_hz, channel.slot_duration_s: ")
    assert "must be finite" in err


def test_phase_argument_overflow_names_file_and_keys(tmp_path, capsys):
    """A subband spacing whose phase argument overflows exits 2 at
    construction, naming the file and its key, not in a pool worker."""
    config = tmp_path / "run.ini"
    config.write_text("[channel]\nsubband_spacing_hz = 1e308\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--codebook", "svd", "--slots", "3",
                 "--snr", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: channel.subband_spacing_hz: the subband phase argument "
        "2*pi*f_k*tau_t must be finite, got subband_spacing_hz=1e+308, delay_spread_ns=100.0\n")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["overhead", "--codebook", "type2", "--beams", "9"], "num_beams must be in {2,3,4}, got 9"),
    (["sweep", "--slots", "1", "--snr", "0"],
     "num_slots=1 leaves no scored slots at feedback_delay_slots=1"),
])
def test_config_object_rejection_of_a_flag_names_no_file(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_import_loads_numpy_random_and_no_scipy():
    """Importing nrsim and its CLI never loads scipy, and loads numpy.random
    up front, so forked pool workers inherit it instead of importing it."""
    code = ("import sys, nrsim, nrsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    src = str(Path(nrsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[] True\n"


def test_multi_mode_manifest_feeds_overhead_and_dump(tmp_path, capsys):
    """overhead and codebook dump ignore the sweep's mode list."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {"sweep.codebook": "type1,type2,svd"}}))
    assert main(["overhead", "--config", str(manifest), "--rank", "1"]) == 0
    assert "total,6" in capsys.readouterr().out
    assert main(["overhead", "--config", str(manifest), "--codebook", "type2"]) == 0
    assert "total,60" in capsys.readouterr().out
    out = tmp_path / "dump"
    assert main(["codebook", "dump", "--config", str(manifest), "--out", str(out)]) == 0
    assert (out / "codebook_type1_rank1.csv").exists()


class TestCodebookDump:
    def test_dump_rank1(self, tmp_path, capsys):
        out = tmp_path / "dump"
        assert main(["codebook", "dump", "--rank", "1", "--out", str(out)]) == 0
        lines = (out / "codebook_type1_rank1.csv").read_text().splitlines()
        assert len(lines) == 1 + 64
        assert lines[0].startswith("entry,i11,i12,i13,i2")

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_dump_rows_are_the_per_entry_precoders(self, tmp_path, capsys, rank):
        """Every row of the 4x2 panel's dump parses back to its entry's PMI
        and, bit for bit, to the precoder per_entry_precoder builds for it
        from dft_beam."""
        ini = tmp_path / "panel.ini"
        ini.write_text("[antenna]\nn2 = 2\n", encoding="utf-8")
        out = tmp_path / "dump"
        assert main(["codebook", "dump", "--config", str(ini), "--rank", str(rank),
                     "--out", str(out)]) == 0
        cfg = AntennaConfig(4, 2)
        ov = oversampling_factors(cfg)
        cb = build_type1_codebook(cfg, rank, ov)
        with open(out / f"codebook_type1_rank{rank}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(cb)
        for e, row in enumerate(rows):
            pmi = cb.pmi_of(e)
            assert [int(v) for v in row[:5]] == [e, pmi.i11, pmi.i12, pmi.i13, *pmi.i2_per_subband]
            want = per_entry_precoder(cfg, ov, rank, pmi)  # (ports, rank), C order: re, im pairs
            assert np.array([float(v) for v in row[5:]]).tobytes() == want.view(float).tobytes()

    def test_dump_type2_rejected(self, tmp_path, capsys):
        out = tmp_path / "dump"
        assert main(["codebook", "dump", "--codebook", "type2", "--out", str(out)]) == 2


class TestChannelProbe:
    def test_probe_passes(self, capsys):
        assert main(["channel", "probe", "--slots", "400", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_probe_needs_two_slots(self, capsys):
        assert main(["channel", "probe", "--slots", "1"]) == 2


def test_package_exports_every_module_name():
    names = {"__version__"}
    for module in (nrsim.channel, nrsim.codebook, nrsim.csi, nrsim.overhead, nrsim.sim):
        names.update(module.__all__)
    assert sorted(nrsim.__all__) == sorted(names)
    for name in nrsim.__all__:
        getattr(nrsim, name)


def test_readme_api_calls_resolve():
    """Every undotted call `name(` in README's Python API section names an
    nrsim attribute, a method of a class nrsim exports, or a numpy function,
    so the section cannot name a removed function."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Python API\n(.*?)^## ", text, re.S | re.M).group(1)
    calls = set(re.findall(r"`([A-Za-z_]\w*)\(", section))
    classes = [obj for obj in map(nrsim.__dict__.get, nrsim.__all__) if isinstance(obj, type)]
    missing = {name for name in calls
               if not (hasattr(nrsim, name) or hasattr(np, name)
                       or any(hasattr(cls, name) for cls in classes))}
    assert {"select_csi", "precoders", "log1p"} <= calls
    assert not missing, sorted(missing)


def test_readme_ini_lists_every_config_key():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    keys = {f"{section}.{key}" for section in parser.sections() for key in parser[section]}
    assert keys == set(_DEFAULTS)
