import json
import subprocess
import sys

import pytest

from fastpolar.cli import main, parse_sim_config
from fastpolar.construction import construct_fast_polar, layout_from_dict


def test_construct_prints_summary(capsys):
    assert main(["construct", "--n", "64", "--k", "48"]) == 0
    out = capsys.readouterr().out
    assert "N=64 K=48" in out


def test_construct_fast_writes_layout(tmp_path, capsys):
    path = tmp_path / "layout.json"
    code = main(["construct", "--n", "1024", "--k", "896", "--fast",
                 "--out", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "patterns:" in out
    layout = layout_from_dict(json.loads(path.read_text()))
    assert layout == construct_fast_polar(1024, 896)
    assert layout.bch_segments == {3, 5, 6, 9, 32}


def test_construct_infeasible_exits_two(capsys):
    assert main(["construct", "--n", "32", "--k", "5", "--fast"]) == 2
    assert "segment 1" in capsys.readouterr().err


def test_construct_invalid_length_exits_one(capsys):
    assert main(["construct", "--n", "33", "--k", "5"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert main(["construct", "--n", "64"]) == 1
    capsys.readouterr()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["deconstruct"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "construct" in capsys.readouterr().out


def test_stats_prints_csv(tmp_path, capsys):
    fast = tmp_path / "fast.json"
    ga = tmp_path / "ga.json"
    main(["construct", "--n", "1024", "--k", "896", "--fast", "--out", str(fast)])
    main(["construct", "--n", "1024", "--k", "896", "--out", str(ga)])
    capsys.readouterr()

    assert main(["stats", str(fast)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("N,K,terminal_nodes")
    assert lines[1].startswith("1024,896,23,")

    assert main(["stats", str(fast), "--baseline", str(ga)]) == 0
    out = capsys.readouterr().out
    assert "reduction_vs_baseline" in out
    assert "nodes=0.4250" in out


def test_stats_missing_file_exits_three(capsys):
    assert main(["stats", "no_such_layout.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_stats_unparsable_file_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stats", str(bad)]) == 3
    capsys.readouterr()


def test_parse_sim_config_happy_path():
    text = """
    # comment line
    n = 64
    k = 48
    snr_grid_db = 1.0, 2.5,3
    arithmetic = fixed
    q_ch = 5
    zero_noise = true
    out_prefix = run1
    """
    config, prefix = parse_sim_config(text)
    assert config.N == 64 and config.K == 48
    assert config.snr_grid_db == (1.0, 2.5, 3.0)
    assert config.arithmetic == "fixed"
    assert config.zero_noise is True
    assert prefix == "run1"


def test_parse_sim_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="snr_grid"):
        parse_sim_config("n=64\nk=32\nsnr_grid=1.0")


def test_parse_sim_config_rejects_bad_value():
    with pytest.raises(ValueError, match="max_frames"):
        parse_sim_config("n=64\nk=32\nsnr_grid_db=1\nmax_frames=many")


def test_parse_sim_config_requires_core_keys():
    with pytest.raises(ValueError, match="missing required"):
        parse_sim_config("n=64\nk=32")


def _write_config(tmp_path, **overrides):
    values = dict(n=64, k=48, layout="fast", snr_grid_db="6.0", max_frames=256,
                  target_errors=10, chunk_frames=64, rng_seed=3,
                  out_prefix=str(tmp_path / "sweep"))
    values.update(overrides)
    path = tmp_path / "sim.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return path


def test_simulate_writes_outputs(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["simulate", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("snr_db,")
    assert (tmp_path / "sweep.csv").exists()
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["config"]["N"] == 64
    csv_lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 2


def test_simulate_unknown_key_exits_one(tmp_path, capsys):
    config = _write_config(tmp_path, snr="6.0")
    assert main(["simulate", str(config)]) == 1
    assert "snr" in capsys.readouterr().err


def test_simulate_missing_config_exits_three(capsys):
    assert main(["simulate", "nowhere.cfg"]) == 3
    capsys.readouterr()


def test_simulate_infeasible_layout_exits_two(tmp_path, capsys):
    config = _write_config(tmp_path, n=32, k=5)
    assert main(["simulate", str(config)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", [dict(llr_scale="nan", arithmetic="fixed"),
                                 dict(design_snr_db="nan"), dict(snr_grid_db="6.0,inf")])
def test_simulate_non_finite_number_exits_one(tmp_path, capsys, bad):
    config = _write_config(tmp_path, **bad)
    assert main(["simulate", str(config)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_console_script_entry_point():
    result = subprocess.run([sys.executable, "-m", "fastpolar.cli",
                             "construct", "--n", "64", "--k", "32"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "N=64 K=32" in result.stdout


def test_stats_inconsistent_segments_exits_three(tmp_path, capsys):
    path = tmp_path / "layout.json"
    main(["construct", "--n", "64", "--k", "48", "--fast", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["segments"][0] = "slow"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", str(path)]) == 3
    assert "segment tags" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"N": 32, "K": 32, "info_set": 5},
                                 {"N": 32, "K": 0, "info_set": [], "segments": 5},
                                 [32, 32, []],
                                 {"N": 32.9, "K": 2, "info_set": [2.7, True]},
                                 {"N": 32, "K": 1, "info_set": [True]}])
def test_stats_wrongly_typed_field_exits_three(tmp_path, capsys, doc):
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(doc))
    assert main(["stats", str(path)]) == 3
    assert "cannot load layout" in capsys.readouterr().err
