"""Command-line front end: subcommands, config precedence, manifests."""

import configparser
import json
import re
from pathlib import Path

import pytest

from nrsim import (
    AntennaConfig,
    ChannelConfig,
    CodebookMode,
    Scenario,
    SweepConfig,
    Type2Config,
    compare_modes,
    write_cqi_hist_csv,
    write_ri_hist_csv,
    write_sweep_csv,
)
from nrsim.cli import _DEFAULTS, main

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
        assert manifest["config"]["channel.subbands"] == "3"

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

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "none.ini"
        assert main(["sweep", "--config", str(missing)]) == 1


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


def test_readme_ini_lists_every_config_key():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    keys = {f"{section}.{key}" for section in parser.sections() for key in parser[section]}
    assert keys == set(_DEFAULTS)
