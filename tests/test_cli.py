import copy
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfeit import cli, disentangle, forward, geometry, reconstruct
from mfeit.cli import _COMMANDS, main
from mfeit.disentangle import fit_rational
from mfeit.forward import CauchyData, MultiFreqData, solve_u0
from mfeit.geometry import DomainConfig, StarShape, circle, unit_circle_grid
from mfeit.reconstruct import InversionSettings, stability_sweep
from mfeit.forward import current_from_fourier

from conftest import R0

BASE = {
    "domain": {"b0": 0.2, "delta": 0.1},
    "shape": {"cos": [0.5]},
    "current": {"cos": [1.0]},
    "n_measure": 64,
    "n_boundary": 128,
    "profile": {"model": "affine", "k_r": -0.5, "c": 0.05},
    "omega": {"start": 10.0, "stop": 50.0, "count": 40},
    "eta": 0.0,
}
#: BASE without the keys only synth reads
FORWARD = {k: v for k, v in BASE.items() if k not in ("profile", "omega", "eta")}
SWEEP = {k: v for k, v in BASE.items() if k != "eta"}


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(cmd, cfg_path, out):
    return main([cmd, "--config", cfg_path, "--out", str(out)])


def test_missing_config_exits_4(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 4


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"shape": [,]}')
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_infeasible_shape_exits_2(tmp_path):
    cfg = dict(BASE, shape={"cos": [0.15]})
    assert run("synth", write_cfg(tmp_path, "c.json", cfg), tmp_path / "o") == 2


def test_numeric_failure_exits_3(tmp_path):
    cfg = {"domain": BASE["domain"], "shape": {"cos": [0.5]},
           "n_boundary": 128, "n_modes": 60}
    assert run("spectrum", write_cfg(tmp_path, "c.json", cfg),
               tmp_path / "o") == 3


@pytest.mark.parametrize("command", ["spectrum", "forward", "synth"])
def test_operator_resolution_below_32_exits_2(tmp_path, capsys, command):
    cfg = {"spectrum": {"domain": BASE["domain"], "shape": {"cos": [0.5]},
                        "n_modes": 4},
           "forward": dict(FORWARD, contrasts=[[2.0, 0.0]]),
           "synth": BASE}[command]
    cfg = dict(cfg, n_boundary=16)
    assert run(command, write_cfg(tmp_path, "c.json", cfg),
               tmp_path / "o") == 2
    assert "n >= 32" in capsys.readouterr().err


def test_missing_input_exits_4(tmp_path):
    cfg = {"domain": BASE["domain"],
           "inputs": {"dataset": str(tmp_path / "none.csv")}}
    assert run("extract", write_cfg(tmp_path, "c.json", cfg),
               tmp_path / "o") == 4


def test_spectrum_command_reports_oracle(tmp_path):
    cfg = {"domain": BASE["domain"], "shape": {"cos": [0.5]},
           "n_boundary": 256, "n_modes": 12, "n_measure": 64}
    out = tmp_path / "spec"
    assert run("spectrum", write_cfg(tmp_path, "c.json", cfg), out) == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert np.isclose(rep["lambda"][0], 0.625, atol=1e-10)
    assert np.isclose(rep["bound"], -26.0)
    assert (out / "traces.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "spectrum.json" in manifest["outputs"]


def test_forward_command(tmp_path):
    cfg = dict(FORWARD, contrasts=[[2.0, 0.0], [0.5, 1.0]])
    out = tmp_path / "fwd"
    assert run("forward", write_cfg(tmp_path, "c.json", cfg), out) == 0
    assert (out / "forward.csv").read_text().startswith("omega,re_k,im_k")


def test_forward_at_resonance_exits_3(tmp_path, capsys):
    # c = (1 + k) / (2 (1 - k)) = 1/8 = r^2 / 2, a K* eigenvalue of the circle
    cfg = dict(FORWARD, contrasts=[[2.0, 0.0], [-0.6, 1e-12]])
    out = tmp_path / "fwd"
    assert run("forward", write_cfg(tmp_path, "c.json", cfg), out) == 3
    assert "NearResonance" in capsys.readouterr().err
    assert not (out / "forward.csv").exists()


@pytest.mark.parametrize("contrast", [[1e11, 0.0], [1e15, 0.0], [1e308, 0.0],
                                      [1e308, 1e308], [-1e308, 1e308]],
                         ids=["1e11", "1e15", "1e308", "1e308-1e308",
                              "-1e308-1e308"])
def test_forward_of_a_huge_contrast_exits_0_at_the_perfect_conductor(
        tmp_path, contrast):
    # c = (k0 + k) / (2 (k0 - k)) tends to -1/2, also where 2 (k0 - k) and
    # |Re k| + |Im k| overflow; K* has no plasmonic mode there, so the
    # column is u0 / k0, with no warning on the way
    cfg = dict(FORWARD, contrasts=[[2.0, 0.0], contrast])
    out = tmp_path / "fwd"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("forward", write_cfg(tmp_path, "c.json", cfg), out) == 0
    U = MultiFreqData.from_csv((out / "forward.csv").read_text()).U
    f = current_from_fourier([1.0], [], unit_circle_grid(64))
    u0 = solve_u0(circle(R0), f, n=FORWARD["n_boundary"]).u0
    assert np.max(np.abs(U[:, 1] - u0)) <= 1e-10


def test_extract_of_a_forward_sweep_with_a_huge_contrast_exits_0(tmp_path):
    # 2 (k0 - k) of k = 1e308 + 1e308j overflows unless the fit forms it
    # scaled, and a nan basis keeps the fit's loop from its stop; the
    # extract runs in a fresh interpreter, killed after a minute
    contrasts = [[2.0 + 0.3 * j, 0.5 + 0.1 * j] for j in range(14)]
    cfg = dict(json.loads((CONFIGS / "forward.json").read_text()),
               contrasts=contrasts + [[1e308, 1e308]])
    assert run("forward", write_cfg(tmp_path, "fwd.json", cfg),
               tmp_path / "fwd") == 0
    extract = {"domain": cfg["domain"], "max_poles": 6, "fit_tol": 1e-6,
               "inputs": {"dataset": str(tmp_path / "fwd/forward.csv")}}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mfeit.cli", "extract", "--config",
         write_cfg(tmp_path, "ext.json", extract), "--out",
         str(tmp_path / "ext")], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # k0 = 1: u0 is the voltage at k = infinity, which the last column nears
    U = MultiFreqData.from_csv((tmp_path / "fwd/forward.csv").read_text()).U
    u0 = CauchyData.from_csv((tmp_path / "ext/u0.csv").read_text()).u0
    assert np.max(np.abs(u0 - U[:, -1])) <= 1e-8


def test_synth_at_resonance_exits_3(tmp_path, capsys):
    # k = -0.6 + i c omega with c = 1e-12 sits on the resonance of
    # test_forward_at_resonance_exits_3 up to 2e-12
    cfg = dict(BASE, profile={"model": "affine", "k_r": -0.6, "c": 1e-12},
               omega=[1.0, 2.0])
    out = tmp_path / "syn"
    assert run("synth", write_cfg(tmp_path, "c.json", cfg), out) == 3
    assert "NearResonance" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_synth_byte_determinism(tmp_path):
    cfg = dict(BASE, eta=1e-3, seed=42)
    p = write_cfg(tmp_path, "c.json", cfg)
    assert run("synth", p, tmp_path / "a") == 0
    assert run("synth", p, tmp_path / "b") == 0
    assert (tmp_path / "a/dataset.csv").read_bytes() \
        == (tmp_path / "b/dataset.csv").read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() \
        == (tmp_path / "b/manifest.json").read_bytes()


def test_end_to_end_synth_extract_invert(tmp_path):
    p = write_cfg(tmp_path, "synth.json", BASE)
    assert run("synth", p, tmp_path / "s") == 0

    ext = {"domain": BASE["domain"], "max_poles": 4, "fit_tol": 1e-10,
           "inputs": {"dataset": str(tmp_path / "s/dataset.csv")}}
    assert run("extract", write_cfg(tmp_path, "ext.json", ext),
               tmp_path / "e") == 0
    # the fit does not observe u0's constant value on the inclusion
    assert (tmp_path / "e/u0.json").read_text() == '{\n  "rho": null\n}\n'

    # extracted u0 reproduces the perfect-conductor solve
    u0 = CauchyData.from_csv((tmp_path / "e/u0.csv").read_text())
    f = current_from_fourier([1.0], [], unit_circle_grid(64))
    truth = solve_u0(circle(R0), f, n=256)
    assert np.max(np.abs(u0.u0 - truth.u0)) < 1e-6

    inv = {"domain": BASE["domain"], "shape": {"cos": [0.5]},
           "current": {"cos": [1.0]},
           "inversion": {"n_fourier_modes": 0, "alpha": 0.0},
           "inputs": {"cauchy": str(tmp_path / "e/u0.csv")}}
    assert run("invert", write_cfg(tmp_path, "inv.json", inv),
               tmp_path / "i") == 0
    shape = json.loads((tmp_path / "i/shape.json").read_text())
    assert abs(shape["cos"][0] - R0) < 1e-6
    report = json.loads((tmp_path / "i/inversion.json").read_text())
    assert report["sym_diff_vs_truth"] < 1e-6


def test_manifest_hashes_the_input_bytes_the_command_parsed(tmp_path,
                                                            monkeypatch):
    # the dataset is replaced on disk right after extract reads it: the
    # manifest attests the bytes parsed, not the file left behind
    assert run("synth", write_cfg(tmp_path, "a.json", BASE),
               tmp_path / "a") == 0
    assert run("synth", write_cfg(tmp_path, "b.json",
                                  dict(BASE, shape={"cos": [0.45]})),
               tmp_path / "b") == 0
    dataset = tmp_path / "a/dataset.csv"
    replacement = (tmp_path / "b/dataset.csv").read_bytes()
    read_bytes = Path.read_bytes

    def read_then_replace(self):
        raw = read_bytes(self)
        if self == dataset:
            dataset.write_bytes(replacement)
        return raw

    parsed = []
    from_csv = MultiFreqData.from_csv.__func__

    def spy(cls, text):
        parsed.append(text)
        return from_csv(cls, text)

    monkeypatch.setattr(Path, "read_bytes", read_then_replace)
    monkeypatch.setattr(MultiFreqData, "from_csv", classmethod(spy))
    ext = {"domain": BASE["domain"], "max_poles": 4, "fit_tol": 1e-10,
           "inputs": {"dataset": str(dataset)}}
    assert run("extract", write_cfg(tmp_path, "ext.json", ext),
               tmp_path / "e") == 0
    manifest = json.loads((tmp_path / "e/manifest.json").read_text())
    assert len(parsed) == 1
    assert manifest["inputs"] == {
        str(dataset): hashlib.sha256(parsed[0].encode()).hexdigest()}


def test_invert_survives_a_trial_inside_the_accuracy_zone(tmp_path):
    # exact u0 of a truth with 23 modes, fitted with 16 of them: a trial
    # comes within the quadrature accuracy zone of the circle at 128 nodes,
    # which the loop rejects like a trial that does not descend
    m = np.arange(2, 25)
    truth = StarShape(cos=(0.5, 0.0, *(0.25 * (-1.0) ** m / m ** 3)))
    cauchy = tmp_path / "u0.csv"
    cauchy.write_text(solve_u0(truth, np.cos(unit_circle_grid(64).t),
                               n=512).to_csv())
    cfg = {"domain": BASE["domain"], "current": {"cos": [1.0]},
           "inputs": {"cauchy": str(cauchy)},
           "inversion": {"n_fourier_modes": 16, "alpha": 0.0}}
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg),
               tmp_path / "i") == 0


#: each command that solves forward on the config shape, at 256 nodes
ZONE_CONFIGS = {
    "spectrum": {"shape": {"cos": [0.5]}, "n_modes": 4},
    "forward": dict(FORWARD, contrasts=[[2.0, 0.0]]),
    "synth": BASE,
    "sweep": dict(SWEEP, noise_levels=[1e-3], seeds=[1], max_poles=4),
}


@pytest.mark.parametrize("command", sorted(ZONE_CONFIGS))
def test_shape_inside_the_accuracy_zone_exits_2_naming_n_boundary(
        tmp_path, capsys, monkeypatch, command):
    # radius 0.99 is in the class for delta 0.005, but its gap 0.01 to the
    # measurement circle is inside the zone 2 pi 0.99 / 256 = 0.0243, where
    # a forward solve raised TargetTooClose and exited 3
    cfg = dict(ZONE_CONFIGS[command], domain={"b0": 0.2, "delta": 0.005},
               shape={"cos": [0.99]}, n_boundary=256)
    _refuse_solves(monkeypatch)
    out = tmp_path / "o"
    assert run(command, write_cfg(tmp_path, "c.json", cfg), out) == 2
    assert capsys.readouterr().err == _line(
        "n_boundary must be so large that the accuracy zone 0.0243 lies "
        "inside the shape's gap 0.01 to the unit circle, got 256")
    assert not (out.exists() and any(out.iterdir()))


def test_shape_outside_the_accuracy_zone_runs(tmp_path):
    # gap 0.04 against the zone 2 pi 0.96 / 256 = 0.0236
    cfg = dict(json.loads((CONFIGS / "forward.json").read_text()),
               domain={"b0": 0.2, "delta": 0.03}, shape={"cos": [0.96]})
    out = tmp_path / "fwd"
    assert run("forward", write_cfg(tmp_path, "c.json", cfg), out) == 0
    assert (out / "forward.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "forward", "synth"])
def test_command_builds_its_inclusion_grid_once(tmp_path, monkeypatch,
                                                command):
    """The grid whose gap to the unit circle is checked is the one solved on."""
    built = []
    star_grid = geometry._star_grid

    def counted(shape, n):
        built.append((shape, n))
        return star_grid(shape, n)

    monkeypatch.setattr(geometry, "_star_grid", counted)
    cfg = dict(ZONE_CONFIGS[command], n_boundary=128)
    assert run(command, write_cfg(tmp_path, "c.json", cfg), tmp_path / "o") == 0
    assert built.count((circle(0.5), 128)) == 1


def test_synth_evaluates_its_profile_once(tmp_path, monkeypatch):
    calls = []

    def counted(omega, **params):
        calls.append(omega.size)
        return forward._affine(omega, **params)

    monkeypatch.setitem(forward._PROFILES, "affine", counted)
    assert run("synth", write_cfg(tmp_path, "s.json", BASE), tmp_path / "s") == 0
    assert calls == [40]


def test_degenerate_sweep_emits_one_row(tmp_path):
    cfg = dict(SWEEP, noise_levels=[1e-3], seeds=[1], max_poles=4,
               inversion={"n_fourier_modes": 0, "alpha": 0.0})
    out = tmp_path / "sw"
    assert run("sweep", write_cfg(tmp_path, "c.json", cfg), out) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[1].endswith("ok")


def test_sweep_summary_counts_ok_rows(tmp_path):
    cfg = dict(SWEEP, noise_levels=[0.0, 1e-4, 1e-2], seeds=[1, 2],
               max_poles=4, inversion={"n_fourier_modes": 0, "alpha": 0.0})
    out = tmp_path / "sw"
    assert run("sweep", write_cfg(tmp_path, "c.json", cfg), out) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["n_ok"]) == len(summary["levels"])
    assert sum(summary["n_ok"]) == sum(r.endswith(",ok") for r in rows)


def test_sweep_with_bad_inversion_resolution_exits_2(tmp_path, capsys):
    """The inversion settings reject the grid before any row runs: an odd
    count, and an even one below the operators' 32 nodes."""
    for n in (15, 16):
        cfg = dict(SWEEP, noise_levels=[1e-3], seeds=[1], max_poles=4,
                   inversion={"n_fourier_modes": 0, "alpha": 0.0,
                              "n_boundary": n})
        out = tmp_path / f"sw{n}"
        assert run("sweep", write_cfg(tmp_path, "c.json", cfg), out) == 2
        assert f"need even n >= 32 nodes, got {n}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert not (out / "manifest.json").exists()


def test_threads_flag_accepted(tmp_path):
    inv_cfg = dict(BASE)
    p = write_cfg(tmp_path, "c.json", inv_cfg)
    assert main(["synth", "--config", p, "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 0


def _corrupt(path, row, col, value):
    """Overwrite one cell of a CSV file; rows count the header as row 1."""
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[col] = value
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dataset_exits_2_with_location(tmp_path, capsys, value):
    assert run("synth", write_cfg(tmp_path, "s.json", BASE), tmp_path / "s") == 0
    data = tmp_path / "s/dataset.csv"
    _corrupt(data, row=4, col=5, value=value)
    ext = {"domain": BASE["domain"], "inputs": {"dataset": str(data)}}
    assert run("extract", write_cfg(tmp_path, "e.json", ext),
               tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert str(data) in err and "row 4, column re_u1" in err


def _drop_cell(path, row, col):
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    del cells[col]
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_column(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln.rsplit(",", 1)[0] for ln in lines) + "\n")


def _append_cell(path, row):
    lines = path.read_text().splitlines()
    lines[row - 1] += ",0.0"
    path.write_text("\n".join(lines) + "\n")


def _keep_header(path):
    path.write_text(path.read_text().partition("\n")[0] + "\n")


@pytest.mark.parametrize("corrupt,where", [
    (lambda p: _corrupt(p, row=4, col=5, value="abc"),
     "row 4, column re_u1: not a number"),
    (lambda p: _drop_cell(p, row=5, col=7), "row 5, column im_u63: missing"),
    (_drop_last_column, "row 1, column re_u63: need omega"),
    (lambda p: _append_cell(p, row=5),
     "row 5, column 132: beyond the 131 header columns"),
    (_keep_header, "no data rows"),
], ids=["non-numeric", "ragged", "odd-re-im", "extra-cell", "no-rows"])
def test_malformed_dataset_exits_2_with_location(tmp_path, capsys, corrupt,
                                                 where):
    assert run("synth", write_cfg(tmp_path, "s.json", BASE), tmp_path / "s") == 0
    data = tmp_path / "s/dataset.csv"
    corrupt(data)
    ext = {"domain": BASE["domain"], "inputs": {"dataset": str(data)}}
    assert run("extract", write_cfg(tmp_path, "e.json", ext),
               tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert str(data) in err and where in err


def _invert_cfg(tmp_path, cauchy):
    inv = {"domain": BASE["domain"], "current": {"cos": [1.0]},
           "inversion": {"n_fourier_modes": 0, "alpha": 0.0},
           "inputs": {"cauchy": str(cauchy)}}
    return write_cfg(tmp_path, "inv.json", inv)


def _cauchy_file(tmp_path):
    f = current_from_fourier([1.0], [], unit_circle_grid(64))
    path = tmp_path / "u0.csv"
    path.write_text(solve_u0(circle(R0), f, n=128).to_csv())
    return path


@pytest.mark.parametrize("col,name", [(1, "f"), (2, "u0")])
def test_nan_cauchy_data_exits_2_with_location(tmp_path, capsys, col, name):
    cauchy = _cauchy_file(tmp_path)
    _corrupt(cauchy, row=10, col=col, value="nan")
    assert run("invert", _invert_cfg(tmp_path, cauchy), tmp_path / "i") == 2
    err = capsys.readouterr().err
    assert str(cauchy) in err and f"row 10, column {name}" in err


@pytest.mark.parametrize("keep,name", [(1, "f"), (2, "u0")])
def test_cauchy_file_without_a_column_exits_2_naming_it(tmp_path, capsys,
                                                        keep, name):
    cauchy = _cauchy_file(tmp_path)
    lines = cauchy.read_text().splitlines()
    cauchy.write_text("\n".join(",".join(ln.split(",")[:keep])
                                for ln in lines) + "\n")
    assert run("invert", _invert_cfg(tmp_path, cauchy), tmp_path / "i") == 2
    err = capsys.readouterr().err
    assert str(cauchy) in err and f"row 1, column {name}: missing" in err


def test_off_grid_theta_exits_2(tmp_path, capsys):
    cauchy = _cauchy_file(tmp_path)
    _corrupt(cauchy, row=7, col=0, value="0.3")
    assert run("invert", _invert_cfg(tmp_path, cauchy), tmp_path / "i") == 2
    err = capsys.readouterr().err
    assert str(cauchy) in err and "row 7, column theta" in err


def test_invert_resolution_below_32_exits_2(tmp_path, capsys):
    """The inverter's grid obeys the operators' rule, not only discretize's."""
    cfg = json.loads(Path(_invert_cfg(tmp_path, _cauchy_file(tmp_path)))
                     .read_text())
    cfg["inversion"]["n_boundary"] = 16
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg),
               tmp_path / "i") == 2
    assert "need even n >= 32 nodes, got 16" in capsys.readouterr().err
    assert not (tmp_path / "i" / "shape.json").exists()


def test_invert_current_disagreeing_with_f_exits_2(tmp_path, capsys):
    cauchy = _cauchy_file(tmp_path)  # its f column is cos(theta)
    cfg = json.loads(Path(_invert_cfg(tmp_path, cauchy)).read_text())
    cfg["current"] = {"cos": [0.0, 3.0]}
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg),
               tmp_path / "i") == 2
    err = capsys.readouterr().err
    assert "current" in err and f"f column of {cauchy}" in err
    assert not (tmp_path / "i" / "shape.json").exists()


@pytest.mark.parametrize("current,gap", [
    ({"cos": [2.0]}, "1"), ({"cos": [1.0], "sin": [1e-9]}, "1e-09"),
    ({"cos": [1.0]}, None)])
def test_invert_checks_current_against_the_f_column(tmp_path, capsys, current,
                                                    gap):
    """Against a file whose f column is cos(theta), a current off by any
    more than rounding exits 2 and writes nothing; cos(theta) runs."""
    cauchy = _cauchy_file(tmp_path)
    cfg = json.loads(Path(_invert_cfg(tmp_path, cauchy)).read_text())
    cfg["current"] = current
    out = tmp_path / "i"
    code = run("invert", write_cfg(tmp_path, "inv.json", cfg), out)
    if gap is None:
        assert code == 0 and (out / "shape.json").exists()
    else:
        assert code == 2
        assert (f"config current disagrees with the f column of {cauchy}: "
                f"max difference {gap}\n") in capsys.readouterr().err
        assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("with_current", [True, False])
@pytest.mark.parametrize("rows", [15, 14, 8])
def test_cauchy_file_the_measurement_grid_cannot_take_exits_2_naming_it(
        tmp_path, capsys, rows, with_current):
    """The codec reads any row count; ``invert`` refuses a file whose rows
    are not an even count >= 16, naming the file and its rows."""
    theta = 2 * np.pi * np.arange(rows) / rows
    cauchy = tmp_path / "u0.csv"
    cauchy.write_text(CauchyData(f=np.cos(theta), u0=0.1 * np.cos(theta))
                      .to_csv())
    cfg = json.loads(Path(_invert_cfg(tmp_path, cauchy)).read_text())
    if not with_current:
        del cfg["current"]
    out = tmp_path / "i"
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg), out) == 2
    assert (f"rows of {cauchy}: need even n >= 16 nodes, got {rows}"
            in capsys.readouterr().err)
    assert out.is_dir() and not any(out.iterdir())


def test_failure_after_the_inversion_writes_no_file(tmp_path, capsys,
                                                     monkeypatch):
    """Outputs reach --out only after the command returns: scoring against
    the truth fails after the inversion, and shape.json is not written."""
    def fail(*args):
        raise ValueError("scoring failed")

    monkeypatch.setattr(cli, "symmetric_difference", fail)
    cfg = json.loads(Path(_invert_cfg(tmp_path, _cauchy_file(tmp_path)))
                     .read_text())
    cfg["shape"] = {"cos": [R0]}
    out = tmp_path / "i"
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg), out) == 2
    assert "scoring failed" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


def test_invert_without_f_or_current_exits_2_naming_both(tmp_path, capsys):
    cauchy = _cauchy_file(tmp_path)
    data = CauchyData.from_csv(cauchy.read_text())
    data.f = None
    cauchy.write_text(data.to_csv())
    cfg = json.loads(Path(_invert_cfg(tmp_path, cauchy)).read_text())
    del cfg["current"]
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg),
               tmp_path / "i") == 2
    assert f"config needs current: {cauchy} has no f column" \
        in capsys.readouterr().err


@pytest.mark.parametrize("f,inversion,message", [
    pytest.param(np.zeros(64), None, "must be nonzero", id="zero"),
    # the solve refused this one only inside the LM step, as a singular matrix
    pytest.param(np.zeros(64), {"n_fourier_modes": 0, "alpha": 0.0},
                 "must be nonzero", id="zero-M0"),
    pytest.param(np.cos(unit_circle_grid(64).t) + 0.5, None,
                 "must have zero boundary mean, got 0.5", id="mean")])
def test_cauchy_file_with_a_bad_f_column_exits_2_naming_it(
        tmp_path, capsys, monkeypatch, f, inversion, message):
    """An f column that injects nothing, or a current with a nonzero mean,
    is refused at the read, before any solve, naming the file and column;
    a zero one ran to the start circle, reported as converged."""
    theta = unit_circle_grid(64).t
    cauchy = tmp_path / "u0.csv"
    cauchy.write_text(CauchyData(
        f=f, u0=solve_u0(circle(0.4), np.cos(theta), n=256).u0).to_csv())
    cfg = {"domain": BASE["domain"], "inputs": {"cauchy": str(cauchy)},
           "inversion": inversion}
    monkeypatch.setattr(cli, "invert", lambda *args: pytest.fail("solved"))
    out = tmp_path / "i"
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg), out) == 2
    assert capsys.readouterr().err == _line(
        f"{cauchy}: column f: injected current {message}")
    assert out.is_dir() and not any(out.iterdir())


def test_fit_defaults_agree():
    # each is named once in disentangle; README documents these values
    def defaults(key, *fns):
        return {inspect.signature(fn).parameters[key].default for fn in fns}

    assert defaults("max_poles", fit_rational, stability_sweep,
                    _COMMANDS["extract"], _COMMANDS["sweep"]) == {6}
    assert defaults("tol", fit_rational) \
        | defaults("fit_tol", _COMMANDS["extract"]) == {1e-9}


def test_a_key_error_is_a_bug_not_a_config_error(tmp_path, monkeypatch):
    # no config path raises KeyError, so main lets one through, unblamed
    # on the config, and writes nothing
    def broken(*args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "solve_forward_batched", broken)
    out = tmp_path / "fwd"
    cfg = dict(FORWARD, contrasts=[[2.0, 0.0]])
    with pytest.raises(KeyError, match="a bug"):
        run("forward", write_cfg(tmp_path, "c.json", cfg), out)
    assert out.is_dir() and not any(out.iterdir())


#: a stand-in value that deletes the key instead of setting it
MISSING = object()


@pytest.mark.parametrize("command,section,key,value", [
    pytest.param("invert", "inversion", "n_fourer_modes", 4,  # misspelt
                 id="inversion-n_fourer_modes-4"),
    pytest.param("invert", "domain", "bo", 0.3,  # misspelt
                 id="domain-bo-0.3"),
    pytest.param("synth", "domain", "b1", 1.0,  # retired: the disk's radius
                 id="domain-b1-1.0"),
    pytest.param("invert", "inversion", "max_iter", 10,  # an inverter constant
                 id="inversion-max_iter-10"),
    pytest.param("spectrum", None, "n_boundry", 64, id="n_boundry-64"),
    pytest.param("synth", "shape", "sine", [0.01], id="shape-sine"),
    pytest.param("synth", "current", "coss", [1.0], id="current-coss"),
    # even where the Cauchy file's own f column is used
    pytest.param("invert", "current", "coss", [1.0], id="invert-current-coss"),
    pytest.param("synth", "omega", "num", 40, id="omega-num"),
    pytest.param("synth", "profile", "tau", 0.1,  # a debye parameter
                 id="profile-tau"),
    pytest.param("invert", "inputs", "dataset", "d.csv",  # extract's input
                 id="inputs-dataset"),
    pytest.param("synth", None, "profile", MISSING, id="missing-profile"),
    pytest.param("synth", "omega", "count", MISSING, id="missing-omega-count"),
])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, command,
                                              section, key, value):
    if command == "invert":
        cfg = json.loads(Path(_invert_cfg(tmp_path, _cauchy_file(tmp_path))
                              ).read_text())
    else:
        cfg = copy.deepcopy({"synth": BASE, "spectrum": {
            "domain": BASE["domain"], "shape": {"cos": [0.5]},
            "n_modes": 4}}[command])
    target = cfg if section is None else cfg[section]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    assert run(command, write_cfg(tmp_path, "c.json", cfg), tmp_path / "o") == 2
    assert repr(key) in capsys.readouterr().err


def _line(message):
    """The whole stderr line of a config refused with ``message``."""
    return f"mfeit: invalid configuration: {message}\n"


def _refuse_solves(monkeypatch):
    """Make every solve and input read raise, so a test sees which config
    checks run before them."""

    def solve(*args, **kwargs):
        raise AssertionError("solved or read before the config was checked")

    # the sweep's start solve and clean synthesis, extract's fit, the
    # assembly that synth and spectrum start with, and every input read
    for module, name in ((reconstruct, "_point"), (reconstruct, "synthesize"),
                         (disentangle, "_check_contrasts"), (cli, "assemble"),
                         (cli, "_read_input")):
        monkeypatch.setattr(module, name, solve)


@pytest.mark.parametrize("command,section,key,value,message", [
    pytest.param("synth", "omega", "count", 2.5,
                 "omega.count must be an integer >= 1, got 2.5",
                 id="omega-count-2.5"),
    pytest.param("synth", "omega", "count", 0,
                 "omega.count must be an integer >= 1, got 0",
                 id="omega-count-0"),
    pytest.param("synth", "omega", "count", True,
                 _line("omega.count must be an integer >= 1, got True"),
                 id="omega-count-bool"),
    pytest.param("synth", None, "omega", [],
                 _line("omega must be a non-empty list of frequencies, "
                       "got []"), id="omega-empty"),
    pytest.param("sweep", None, "omega", 5.0,
                 _line("omega must be a non-empty list of frequencies, "
                       "got 5.0"), id="omega-scalar"),
    # a bound of omega that is not a number, or a frequency
    pytest.param("synth", "omega", "stop", [50.0],
                 _line("omega.stop must be a number, got [50.0]"),
                 id="omega-stop-list"),
    pytest.param("sweep", None, "omega", ["a", 20.0],
                 _line("omega must be a non-empty list of frequencies, "
                       "got ['a', 20.0]"), id="omega-list-str"),
    pytest.param("synth", None, "seed", 1.5,
                 "seed must be an integer >= 0, got 1.5", id="seed-1.5"),
    pytest.param("synth", None, "seed", True,
                 _line("seed must be an integer >= 0, got True"),
                 id="seed-bool"),
    pytest.param("invert", "inversion", "n_fourier_modes", 2.5,
                 _line("inversion.n_fourier_modes must be an integer in "
                       "0..16, got 2.5"),
                 id="inversion-n_fourier_modes-2.5"),
    pytest.param("invert", "inversion", "n_fourier_modes", True,
                 _line("inversion.n_fourier_modes must be an integer in "
                       "0..16, got True"),
                 id="inversion-n_fourier_modes-bool"),
    pytest.param("spectrum", None, "n_modes", True,
                 _line("n_modes must be an integer >= 0, got True"),
                 id="spectrum-n_modes-True"),
    pytest.param("spectrum", None, "n_modes", -1,
                 "n_modes must be an integer >= 0, got -1",
                 id="spectrum-n_modes--1"),
    *(pytest.param("sweep", None, "seeds", value,
                   f"seeds must be a non-empty list of integers >= 0, "
                   f"got {value!r}", id=f"seeds-{kind}")
      for kind, value in [("float", [1.5]), ("str", ["a"]), ("negative", [-1]),
                          ("scalar", 3), ("empty", [])]),
    pytest.param("sweep", None, "seeds", [True],
                 _line("seeds must be a non-empty list of integers >= 0, "
                       "got [True]"), id="seeds-bool"),
    *(pytest.param("sweep", None, "noise_levels", value,
                   _line(f"noise_levels must be a non-empty list of numbers "
                         f"in [0, 1), got {value!r}"),
                   id=f"noise_levels-{kind}")
      for kind, value in [("scalar", 3), ("str", ["a"]), ("empty", []),
                          # the log law (1/ln eps^-1)^tau needs eps < 1
                          ("one", [0.3, 1.0]), ("two", [1e-3, 2.0])]),
    # a repeated level or seed would count one row twice
    *(pytest.param("sweep", None, key, value,
                   _line(f"{key} must be distinct, got {value!r}"),
                   id=f"{key}-repeated")
      for key, value in [("noise_levels", [1e-3, 1e-3]), ("seeds", [1, 1])]),
    *(pytest.param(command, None, "max_poles", 2.5,
                   "max_poles must be an integer >= 0, got 2.5",
                   id=f"{command}-max_poles-2.5")
      for command in ("sweep", "extract")),
    pytest.param("synth", None, "eta", True,
                 _line("eta must be a number >= 0, got True"), id="eta-bool"),
    pytest.param("extract", None, "fit_tol", True,
                 _line("fit_tol must be a number > 0, got True"),
                 id="fit_tol-True"),
    *(pytest.param("extract", None, "fit_tol", value,
                   f"fit_tol must be a number > 0, got {value!r}",
                   id=f"fit_tol-{value}") for value in (-1, 0)),
    pytest.param("invert", "inversion", "alpha", True,
                 _line("inversion.alpha must be a number >= 0, got True"),
                 id="alpha-bool"),
    # no config key takes a boolean, wherever it sits: each key's own rule
    # refuses it
    pytest.param("synth", "domain", "k0", True,
                 _line("domain.k0 must be a number, got True"),
                 id="domain-k0-bool"),
    pytest.param("synth", "omega", "start", True,
                 _line("omega.start must be a number, got True"),
                 id="omega-start-bool"),
    pytest.param("synth", None, "omega", [True, 20, 30],
                 _line("omega must be a non-empty list of frequencies, "
                       "got [True, 20, 30]"), id="omega-list-bool"),
    pytest.param("synth", "current", "cos", [True],
                 _line("current.cos must be a list of numbers, got [True]"),
                 id="current-cos-bool"),
    pytest.param("synth", "profile", "k_r", False,
                 _line("profile.k_r must be a number, got False"),
                 id="profile-k_r-bool"),
    pytest.param("forward", None, "contrasts", [[True, 0]],
                 _line("contrasts must be a non-empty list of [re, im] number "
                       "pairs, got [[True, 0]]"), id="contrasts-bool"),
    *(pytest.param("forward", None, "contrasts", value,
                   f"contrasts must be a non-empty list of [re, im] number "
                   f"pairs, got {value!r}", id=f"contrasts-{kind}")
      for kind, value in [("empty", []), ("scalar", [2.0]),
                          ("single", [[2.0]]), ("triple", [[1, 2, 3]]),
                          ("str", [["a", 0]])]),
    pytest.param("spectrum", None, "tail", True,
                 _line("tail must be a number >= 0, got True"),
                 id="spectrum-tail-bool"),
    # a negative tail would keep the unresolved modes at lambda = 1/2
    *(pytest.param("spectrum", None, "tail", value,
                   f"tail must be a number >= 0, got {value!r}",
                   id=f"spectrum-tail-{value}") for value in (-1.0, "x")),
    # the contrasts are computed, and so checked, before any solve
    *(pytest.param(command, None, "profile", profile, message,
                   id=f"{command}-profile-{kind}")
      for command in ("synth", "sweep")
      for kind, profile, message in [
          ("unknown-parameter", dict(BASE["profile"], tau=0.1),
           "unexpected keyword argument 'tau'"),
          ("no-model", {"k_r": -0.5, "c": 0.05},
           _line("profile.model must be 'affine' or 'debye', got None")),
          ("unknown-model", {"model": "cole", "k_r": -0.5},
           _line("profile.model must be 'affine' or 'debye', got 'cole'")),
          ("on-the-axis", {"model": "affine", "k_r": -0.5, "c": 0.0},
           "contrast (-0.5+0j) touches the closed negative real axis")]),
    # checked before the inversion and before the assembly
    pytest.param("invert", None, "shape", {"cos": [0.95]},
                 "upper bound 1 - delta violated: value 0.95",
                 id="invert-truth-outside-the-class"),
    pytest.param("spectrum", None, "n_measure", 15,
                 "n_measure: need even n >= 16 nodes, got 15",
                 id="spectrum-n_measure-15"),
    # each grid size names its key and its own grid's rule
    *(pytest.param(command, section, key, value,
                   f"{key if section is None else section + '.' + key}: "
                   f"need even n >= {least} nodes, got {value!r}",
                   id=f"{command}-{key}-{value}")
      for command, section, key, value, least in [
          ("synth", None, "n_measure", 15, 16),
          ("forward", None, "n_measure", "64", 16),
          ("synth", None, "n_boundary", 33, 32),
          ("spectrum", None, "n_boundary", 30, 32),
          ("sweep", None, "n_boundary", 33, 32),
          ("synth", None, "n_boundary", "x", 32),
          ("invert", "inversion", "n_boundary", "x", 32)]),
    # numbers of the wrong kind name their key
    *(pytest.param("synth", section, key, value,
                   f"{section}.{key} must be a number, got {value!r}",
                   id=f"{section}-{key}-{value}")
      for section, key, value in [("domain", "b0", "x"), ("domain", "k0", "1"),
                                  ("domain", "m", [1]), ("profile", "c", "x")]),
    *(pytest.param("synth", section, "cos", ["x"],
                   f"{section}.cos must be a list of numbers, got ['x']",
                   id=f"{section}-cos-str") for section in ("shape", "current")),
    # the band of the admissible class inside the unit disk, and a shape
    # without its mean radius
    pytest.param("synth", "domain", "b0", 0.95,
                 _line("domain.b0 must be in (0, 1 - delta), got 0.95"),
                 id="domain-b0-above-the-band"),
    pytest.param("synth", "domain", "b0", 0.9,  # delta is 0.1
                 _line("domain.b0 must be in (0, 1 - delta), got 0.9"),
                 id="domain-b0-at-1-delta"),
    *(pytest.param("forward", "domain", "delta", value,
                   _line(f"domain.delta must be a number > 0, got {value!r}"),
                   id=f"domain-delta-{value}") for value in (0.0, -0.5)),
    pytest.param("synth", "shape", "cos", [],
                 _line("shape.cos must be a non-empty list of numbers, "
                       "got []"), id="shape-cos-empty"),
    pytest.param("spectrum", None, "shape", {},
                 _line("shape.cos must be a non-empty list of numbers, "
                       "got []"), id="shape-empty"),
    # a current that injects nothing, even where the Cauchy file has f
    *(pytest.param(command, None, "current", value,
                   _line(f"current must be nonzero, got {value!r}"),
                   id=f"{command}-current-{kind}")
      for command in ("synth", "forward", "sweep", "invert")
      for kind, value in [("empty", {}), ("zero", {"cos": [0.0]})]),
])
def test_config_value_of_wrong_kind_exits_2_naming_it(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      section, key, value,
                                                      message):
    if command == "invert":
        cfg = json.loads(Path(_invert_cfg(tmp_path, _cauchy_file(tmp_path))
                              ).read_text())
    elif command == "extract":
        assert run("synth", write_cfg(tmp_path, "s.json", BASE),
                   tmp_path / "s") == 0
        cfg = {"domain": BASE["domain"],
               "inputs": {"dataset": str(tmp_path / "s/dataset.csv")}}
    else:
        cfg = copy.deepcopy({"synth": BASE, "sweep": dict(
            SWEEP, noise_levels=[1e-3], seeds=[1], max_poles=4),
            "forward": dict(FORWARD, contrasts=[[1.0, 0.0]]),
            "spectrum": {"domain": BASE["domain"], "shape": {"cos": [0.5]},
                         "n_modes": 4}}[command])
    (cfg if section is None else cfg[section])[key] = value
    _refuse_solves(monkeypatch)
    out = tmp_path / "o"
    assert run(command, write_cfg(tmp_path, "c.json", cfg), out) == 2
    assert message in capsys.readouterr().err
    assert not (out.exists() and any(out.iterdir()))


def test_non_object_config_exits_2(tmp_path, capsys):
    assert run("synth", write_cfg(tmp_path, "c.json", [BASE]),
               tmp_path / "o") == 2
    assert "not list" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,literal", [
    pytest.param(None, "eta", "NaN", id="eta-nan"),
    pytest.param("domain", "k0", "NaN", id="k0-nan"),
    pytest.param("domain", "m", "NaN", id="m-nan"),
    pytest.param("omega", "start", "Infinity", id="omega-start-inf"),
    pytest.param("omega", "stop", "1e999", id="omega-stop-overflow"),
    pytest.param("current", "cos", ["NaN"], id="current-cos-nan"),
    pytest.param("shape", "cos", [0.5, "NaN"], id="shape-cos-nan"),
])
def test_non_finite_config_number_exits_2_naming_it(tmp_path, capsys, section,
                                                    key, literal):
    """json reads NaN, Infinity and 1e999; the config loader refuses them."""
    cfg = copy.deepcopy(BASE)
    target = cfg if section is None else cfg[section]
    target[key] = literal
    text = json.dumps(cfg)
    for bare in ("NaN", "Infinity", "1e999"):
        text = text.replace(f'"{bare}"', bare)
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert run("synth", str(path), out) == 2
    bare = literal if isinstance(literal, str) else literal[-1]
    assert f"non-finite number {bare}" in capsys.readouterr().err
    assert not out.exists()


def test_negative_eta_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("synth", write_cfg(tmp_path, "c.json", dict(BASE, eta=-1e-4)),
               out) == 2
    assert capsys.readouterr().err == _line(
        "eta must be a number >= 0, got -0.0001")
    assert not (out / "dataset.csv").exists()


def test_negative_sweep_noise_level_exits_2(tmp_path, capsys):
    cfg = dict(SWEEP, noise_levels=[-1e-3, 1e-3], seeds=[1], max_poles=4,
               inversion={"n_fourier_modes": 0, "alpha": 0.0})
    out = tmp_path / "sw"
    assert run("sweep", write_cfg(tmp_path, "c.json", cfg), out) == 2
    assert capsys.readouterr().err == _line(
        "noise_levels must be a non-empty list of numbers in [0, 1), "
        "got [-0.001, 0.001]")
    assert not (out / "sweep.csv").exists()


def test_negative_fourier_mode_count_exits_2_naming_it(tmp_path, capsys):
    cfg = json.loads(Path(_invert_cfg(tmp_path, _cauchy_file(tmp_path)))
                     .read_text())
    cfg["inversion"]["n_fourier_modes"] = -1
    out = tmp_path / "i"
    assert run("invert", write_cfg(tmp_path, "inv.json", cfg), out) == 2
    assert capsys.readouterr().err == _line(
        "inversion.n_fourier_modes must be an integer in 0..16, got -1")
    assert not (out / "shape.json").exists()


def _theta_column(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([float(line.partition(",")[0]) for line in lines])


def test_written_angles_are_the_measurement_grid_bitwise(tmp_path):
    """The data classes store no angles: each writer derives them from m.

    Sizes that are not powers of two, where other formulas for 2 pi i / m
    round differently."""
    assert run("synth", write_cfg(tmp_path, "s.json",
                                  dict(BASE, n_measure=50)),
               tmp_path / "s") == 0
    ext = {"domain": BASE["domain"], "max_poles": 4, "fit_tol": 1e-10,
           "inputs": {"dataset": str(tmp_path / "s/dataset.csv")}}
    assert run("extract", write_cfg(tmp_path, "e.json", ext),
               tmp_path / "e") == 0
    spec = {"domain": BASE["domain"], "shape": {"cos": [0.5]},
            "n_boundary": 128, "n_modes": 4, "n_measure": 48}
    assert run("spectrum", write_cfg(tmp_path, "sp.json", spec),
               tmp_path / "sp") == 0
    f = current_from_fourier([1.0], [], unit_circle_grid(40))
    (tmp_path / "u0.csv").write_text(solve_u0(circle(R0), f, n=64).to_csv())
    for path, m in [(tmp_path / "e/u0.csv", 50),
                    (tmp_path / "sp/traces.csv", 48),
                    (tmp_path / "u0.csv", 40)]:
        assert _theta_column(path).tobytes() == unit_circle_grid(m).t.tobytes()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_each_command_keys():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", README.read_text(),
                      re.M)
    documented = {cmd: (re.findall(r"`(\w+)`", required),
                        dict(re.findall(r"`(\w+)=([^`]+)`", optional)))
                  for cmd, required, optional in rows}
    declared = {}
    for cmd, fn in _COMMANDS.items():
        keys = [p for p in inspect.signature(fn).parameters.values()
                if p.kind is p.KEYWORD_ONLY]
        declared[cmd] = ([p.name for p in keys if p.default is p.empty],
                         {p.name: json.dumps(p.default) for p in keys
                          if p.default is not p.empty})
    assert documented == declared


def _section_defaults(text: str) -> dict:
    """``{key: default}`` of the "`key` (..., default value)" items in text.

    A key documented without a default maps to None.
    """
    defaults = {}
    for key, note in re.findall(r"`(\w+)` \(([^()]*)\)", text):
        m = re.search(r"default ([^,]+)$", note)
        defaults[key] = float(m.group(1)) if m else None
    return defaults


def test_readme_lists_the_domain_and_inversion_keys():
    text = " ".join(README.read_text().split())
    domain = re.search(r"The `domain` section accepts (.*?) The `inversion`",
                       text).group(1)
    inversion = re.search(r"The `inversion` section of `invert` and `sweep` "
                          r"accepts (.*?) Any other key", text).group(1)
    assert _section_defaults(domain) == {
        f.name: f.default for f in dataclasses.fields(DomainConfig)}
    assert _section_defaults(inversion) == {
        f.name: f.default for f in dataclasses.fields(InversionSettings)
        if f.name != "config"}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: (config, command, output directory) in run order; the pipeline configs
#: read the previous step's outputs below the working directory
CONFIG_RUNS = [("pipeline/synth.json", "synth", "pipeline_out/synth"),
               ("pipeline/extract.json", "extract", "pipeline_out/extract"),
               ("pipeline/invert.json", "invert", "pipeline_out/invert"),
               ("spectrum.json", "spectrum", "spectrum_out"),
               ("forward.json", "forward", "forward_out"),
               ("stability.json", "sweep", "stability_out"),
               ("stability_trefoil.json", "sweep", "stability_trefoil_out"),
               ("outside/invert.json", "invert", "outside_out")]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_checked_in_configs_run_with_valid_manifests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = sorted(str(p.relative_to(CONFIGS)) for p in CONFIGS.rglob("*.json"))
    assert found == sorted(name for name, _, _ in CONFIG_RUNS)
    # the out-of-class inversion reads the u0 of a circle outside the band
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside/u0.csv").write_text(solve_u0(
        circle(0.93), np.cos(unit_circle_grid(64).t), n=256).to_csv())
    for name, command, out in CONFIG_RUNS:
        cfg_path = CONFIGS / name
        if command == "sweep":  # one level and one seed keep the suite fast
            cfg = json.loads(cfg_path.read_text())
            cfg.update(noise_levels=cfg["noise_levels"][:1],
                       seeds=cfg["seeds"][:1])
            cfg_path = Path(write_cfg(tmp_path, name, cfg))
        assert main([command, "--config", str(cfg_path), "--out", out]) == 0
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["config_sha256"] == _sha256(cfg_path)
        assert manifest["outputs"]
        written = {p.name for p in (tmp_path / out).iterdir()}
        assert written - {"manifest.json"} == set(manifest["outputs"])
        for fname, digest in manifest["outputs"].items():
            assert _sha256(tmp_path / out / fname) == digest
        for fname, digest in manifest["inputs"].items():
            assert _sha256(fname) == digest
        for p in (tmp_path / out).glob("*.json"):  # the one JSON form
            t = p.read_text()
            assert t == json.dumps(json.loads(t), sort_keys=True,
                                   indent=2) + "\n"


def _key_paths(node: dict, prefix: str = ""):
    """The path of each key of a config, sections and the keys in them."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")


#: values of kinds that no config key takes, but for a string at an input
#: path, which is skipped; an object in place of a section has the unknown
#: key ``x``
WRONG_KINDS = {"str": "x", "object": {"x": 0}, "nested-list": [[1.0]],
               "bool": True}


# the first six runs take each command once, from its checked-in config
@pytest.mark.parametrize("name,command,path,kind", [
    pytest.param(name, command, path, kind, id=f"{command}-{path}-{kind}")
    for name, command, _ in CONFIG_RUNS[:6]
    for path in _key_paths(json.loads((CONFIGS / name).read_text()))
    for kind in WRONG_KINDS
    if not (path.startswith("inputs.") and kind == "str")])
def test_wrong_kind_at_each_config_key_exits_2_naming_it(
        tmp_path, capsys, monkeypatch, name, command, path, kind):
    """Each key path of the checked-in configs, at each wrong kind, exits 2
    before any solve or read, with a message that starts with the key path;
    an object in place of a section may instead be refused for its unknown
    key, or for a key of the section that it lacks."""
    cfg = json.loads((CONFIGS / name).read_text())
    *parents, key = path.split(".")
    target = cfg
    for parent in parents:
        target = target[parent]
    replaced, target[key] = target[key], copy.deepcopy(WRONG_KINDS[kind])
    _refuse_solves(monkeypatch)
    out = tmp_path / "o"
    assert run(command, write_cfg(tmp_path, "c.json", cfg), out) == 2
    err = capsys.readouterr().err
    head = f"mfeit: invalid configuration: {path}"
    named = err.startswith((f"{head} ", f"{head}: "))
    section = isinstance(replaced, dict) and kind == "object" and (
        err.endswith("unexpected keyword argument 'x'\n")
        or err.startswith(f"{head}."))
    assert named or section, err
    assert not (out.exists() and any(out.iterdir()))


def test_trefoil_sweep_config_rows_are_all_ok(tmp_path):
    # every level of the checked-in trefoil sweep, fitted and inverted
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(CONFIGS / "stability_trefoil.json"),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_ok"] == [3, 3, 3, 3, 3]


def test_extract_rejects_a_contrast_on_the_negative_real_axis(tmp_path,
                                                              capsys):
    # ``forward`` accepts any contrast; its c lies on the fit's pole segment
    cfg = dict(FORWARD, contrasts=[[-0.5, 0.0]] + [[-0.5, 0.1 * j]
                                                  for j in range(1, 16)])
    assert run("forward", write_cfg(tmp_path, "f.json", cfg),
               tmp_path / "f") == 0
    ext = {"domain": BASE["domain"], "max_poles": 4,
           "inputs": {"dataset": str(tmp_path / "f/forward.csv")}}
    out = tmp_path / "e"
    assert run("extract", write_cfg(tmp_path, "e.json", ext), out) == 2
    assert "touches the closed negative real axis" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_extract_of_data_with_a_pole_outside_the_class_exits_3(tmp_path,
                                                              capsys):
    # one pole at c = -0.8, past the class segment |c| <= 0.4919 (b0 = 0.2),
    # at the 16 points of the smallest measurement grid
    k = -0.3 + 1j * np.linspace(0.4, 3.0, 24)
    c = (1.0 + k) / (2 * (1.0 - k))
    rng = np.random.default_rng(1)
    U = (rng.standard_normal(16)[:, None]
         + rng.standard_normal((16, 1)) / (c + 0.8))
    dataset = tmp_path / "d.csv"
    dataset.write_text(MultiFreqData(omega=np.arange(24.0), k=k, U=U).to_csv())
    ext = {"domain": BASE["domain"], "fit_tol": 1e-3,
           "inputs": {"dataset": str(dataset)}}
    out = tmp_path / "e"
    assert run("extract", write_cfg(tmp_path, "e.json", ext), out) == 3
    assert ("FitDiverged: pole c = -0.8 outside the segment |c| < 0.49187"
            in capsys.readouterr().err)
    assert not any(out.iterdir())


@pytest.mark.parametrize("points", [63, 14])
def test_dataset_the_measurement_grid_cannot_take_exits_2_naming_it(
        tmp_path, capsys, points):
    """The codec reads any point count; ``extract`` refuses a dataset whose
    points are not an even count >= 16, so it writes no u0 that ``invert``
    would refuse, naming the file."""
    omega = np.linspace(10.0, 50.0, 40)
    dataset = tmp_path / "d.csv"
    dataset.write_text(MultiFreqData(omega=omega, k=-0.5 + 0.05j * omega,
                                     U=np.ones((points, 40), complex)).to_csv())
    ext = {"domain": BASE["domain"], "inputs": {"dataset": str(dataset)}}
    out = tmp_path / "e"
    assert run("extract", write_cfg(tmp_path, "e.json", ext), out) == 2
    assert (f"points of {dataset}: need even n >= 16 nodes, got {points}"
            in capsys.readouterr().err)
    assert out.is_dir() and not any(out.iterdir())


def test_sweep_identical_across_threads(tmp_path):
    cfg = dict(SWEEP, noise_levels=[0.0, 1e-4, 1e-2], seeds=[1, 2],
               max_poles=4, inversion={"n_fourier_modes": 1, "alpha": 1e-6})
    p = write_cfg(tmp_path, "c.json", cfg)
    for threads in ("1", "4"):
        assert main(["sweep", "--config", p, "--out",
                     str(tmp_path / threads), "--threads", threads]) == 0
    for name in ("sweep.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "1" / name).read_bytes() \
            == (tmp_path / "4" / name).read_bytes()
