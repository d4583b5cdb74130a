import argparse
import importlib.util
import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from graphlim import fileio
from graphlim.cli import build_parser, main
from graphlim.errors import ParameterError
from graphlim.experiments import CSV_HEADER, ExperimentConfig, run_converge
from graphlim.functionals import cell_averages
from graphlim.graphons import ConstantKernel, HalfGraphKernel, StepGraphon
from graphlim.solvers import METHODS, minimize_limit_energy

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_graphon(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--family", "halfgraph", "--n", "8", "--out", str(gpath))
    assert code == 0
    g = fileio.read_graph(gpath)
    assert g.n == 8 and g.edge_count == 10
    code, out, _ = run(capsys, "graphon", "--graph", str(gpath))
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "step" and len(data["widths"]) == 8


def test_cutnorm_checkerboard_against_half(tmp_path, capsys):
    cpath = tmp_path / "checker1.json"
    hpath = tmp_path / "half.json"
    code, _, _ = run(capsys, "gen", "--family", "checkerboard", "--n", "1", "--out", str(cpath))
    assert code == 0
    fileio.write_graphon(hpath, ConstantKernel(0.5))
    code, out, _ = run(
        capsys, "cutnorm", "--a", str(cpath), "--b", str(hpath), "--mode", "exact"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 0.125
    assert data["exact"] is True
    assert "s" in data and "t" in data


def test_homdensity_cli(tmp_path, capsys):
    gpath = tmp_path / "k3.json"
    run(capsys, "gen", "--family", "complete", "--n", "3", "--out", str(gpath))
    code, out, _ = run(capsys, "homdensity", "--motif", "edge", "--graph", str(gpath))
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == "2/3"
    assert data["value"] == pytest.approx(2 / 3, abs=1e-12)


def test_homdensity_of_a_step_graphon_file(tmp_path, capsys):
    from graphlim.graphons import hom_density_graphon, motif_edge, motif_triangle

    gpath, spath, kpath = (str(tmp_path / f) for f in ("g.json", "s.json", "k.json"))
    run(capsys, "gen", "--family", "blocks", "--lambdas", "0.45,0.35,0.2", "--n", "20",
        "--out", gpath)
    run(capsys, "graphon", "--graph", gpath, "--out", spath)
    kernel = fileio.read_graphon(spath)
    for name, motif in (("edge", motif_edge), ("triangle", motif_triangle)):
        code, out, _ = run(capsys, "homdensity", "--motif", name, "--graphon", spath)
        assert code == 0
        assert json.loads(out) == {"motif": name, "value": hom_density_graphon(motif(), kernel)}
    fileio.write_graphon(kpath, HalfGraphKernel())
    code, out, err = run(capsys, "homdensity", "--motif", "edge", "--graphon", kpath)
    assert code == 2 and not out and "expects a step graphon file" in err


def test_solve_discrete_cli(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "--family", "bipartite", "--gamma", "0.5", "--n", "4", "--out", str(gpath))
    code, out, _ = run(capsys, "solve-discrete", "--graph", str(gpath), "--method", "brute")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1.0
    assert sorted(data["labels"]) == [-1.0, -1.0, 1.0, 1.0]


def test_solve_limit_and_kkt_cli(tmp_path, capsys):
    kpath = tmp_path / "half.json"
    run(
        capsys,
        "gen",
        "--family",
        "halfgraph",
        "--n",
        "8",
        "--out",
        str(tmp_path / "g.json"),
        "--limit-out",
        str(kpath),
    )
    spath = tmp_path / "s.json"
    code, _, _ = run(
        capsys,
        "solve-limit",
        "--graphon",
        str(kpath),
        "--grid",
        "12",
        "--restarts",
        "4",
        "--out",
        str(spath),
    )
    assert code == 0
    report = json.loads(spath.read_text())
    assert report["value"] <= 0.5 + 1e-9
    # kkt reads the theta rows of the solve report itself
    code, out, _ = run(capsys, "kkt", "--graphon", str(kpath), "--theta", str(spath))
    assert code == 0
    kkt = json.loads(out)
    assert "phi" in kkt and kkt["residual"] == report["residual"]


def test_kkt_rejects_three_label_theta(tmp_path, capsys):
    from graphlim.graphons import HalfGraphKernel

    kpath, tpath = tmp_path / "half.json", tmp_path / "theta.json"
    fileio.write_graphon(kpath, HalfGraphKernel())
    fileio.write_text(tpath, fileio.dumps({"theta": np.tile([0.5, 0.25, 0.25], (4, 1))}))
    code, _, err = run(capsys, "kkt", "--graphon", str(kpath), "--theta", str(tpath))
    assert code == 2 and "two-label" in err


def test_kkt_rejects_nan_theta(tmp_path, capsys):
    from graphlim.graphons import HalfGraphKernel

    kpath, tpath = tmp_path / "half.json", tmp_path / "theta.json"
    fileio.write_graphon(kpath, HalfGraphKernel())
    tpath.write_text('{"theta": [[NaN, NaN], [0.5, 0.5]]}\n')
    code, out, err = run(capsys, "kkt", "--graphon", str(kpath), "--theta", str(tpath))
    assert code == 2 and out == "" and "finite JSON numbers" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"type": "analytic", "kind": "constant", "params": {}}',
        '{"type": "analytic", "kind": "halfgraph", "params": {"c": 0.5}}',
        '{"type": "analytic", "kind": "checkerboard", "params": {"n": 2.7}}',
        '{"type": "analytic", "kind": "bipartite", "params": {"gamma": "0.5"}}',
        '{"type": "analytic", "kind": "blockfamily", "params": {"lambdas": [true, 0.5]}}',
        '{"type": "step", "widths": [1.0]}',
        '{"type": "step", "widths": [true], "values": [[0.5]]}',
        '[{"type": "analytic", "kind": "halfgraph", "params": {}}]',
        '{"type": "step", "widths": [0.5, 0.5], "values": [[1.0, Infinity], [Infinity, 1.0]]}',
        '{"type": "step", "widths": [NaN], "values": [[0.5]]}',
        '{"type": "analytic", "kind": "bipartite", "params": {"gamma": NaN}}',
        '{"type": "analytic", "kind": "blockfamily", "params": {"lambdas": [-Infinity, 0.5]}}',
        # an integer too large for a float
        pytest.param(
            '{"type": "step", "widths": [1%s], "values": [[0.5]]}' % ("0" * 400), id="huge-int"
        ),
    ],
)
def test_malformed_graphon_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "solve-limit", "--graphon", str(path), "--grid", "4")
    assert code == 2 and "malformed graphon file" in err


@pytest.mark.parametrize("flag", ["--graph", "--graphon", "--theta"])
def test_a_file_that_is_not_json_exits_2_naming_it(tmp_path, capsys, flag):
    kernel, notes = tmp_path / "k.json", tmp_path / "notes.txt"
    fileio.write_graphon(kernel, ConstantKernel(1.0))
    notes.write_text("{\n  kernel: constant\n}\n")
    argv = {
        "--graph": ["graphon", "--graph", str(notes)],
        "--graphon": ["solve-limit", "--graphon", str(notes), "--grid", "4"],
        "--theta": ["kkt", "--graphon", str(kernel), "--theta", str(notes)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert f"file {notes} line 2: Expecting property name" in err


@pytest.mark.parametrize(
    "config, named",
    [
        ([{"family": "halfgraph", "n": [8]}], "config file"),
        ({"family": "halfgraph", "n": 8}, "config field 'n'"),
        ({"family": "halfgraph", "n": [8.7]}, "config field 'n'"),
        ({"family": "halfgraph", "n": [8], "grid": "16"}, "config field 'grid'"),
        ({"family": "halfgraph", "n": [8], "restarts": 2.5}, "config field 'restarts'"),
        ({"family": "halfgraph", "n": [8], "seed": True}, "config field 'seed'"),
        ({"family": "halfgraph", "n": [8], "out": 5}, "config field 'out'"),
    ],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2 and named in err and not out


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"family": "halfgraph",\n "n": [8],,\n "grid": 4}', "line 2"),
        ('{"n": [8]}', "config field 'family'"),
        ('{"family": "halfgraph"}', "config field 'n'"),
        ('{"family": "halfgraph", "n": []}', "config field 'n'"),
        ('{"family": "halfgraph", "n": [8], "grid": 7}', "config field 'grid'"),
        ('{"family": "halfgraph", "n": [8], "restarts": 0}', "config field 'restarts'"),
        ('{"family": "halfgraph", "n": [8], "method": "anneal"}', "config field 'method'"),
        ('{"family": "tree", "n": [8]}', "config field 'family'"),
    ],
    ids=["syntax", "no-family", "no-n", "empty-n", "odd-grid", "no-restarts", "method",
         "family"],
)
def test_invalid_config_values_exit_2(tmp_path, capsys, text, named):
    cfg, out = tmp_path / "cfg.json", tmp_path / "c.csv"
    cfg.write_text(text)
    code, stdout, err = run(capsys, "converge", "--config", str(cfg), "--out", str(out))
    assert code == 2 and named in err
    assert not stdout and not out.exists()


# three-label solve-limit by both methods with scipy made unimportable; the
# tests workflow runs the same commands in an install without scipy
_NO_SCIPY_SMOKE = """
import sys
sys.modules["scipy"] = None
from graphlim.cli import main
out = sys.argv[1]
gen = ["gen", "--family", "blocks", "--n", "8", "--lambdas", "0.5,0.5",
       "--out", out + "/g.json", "--limit-out", out + "/k.json"]
assert main(gen) == 0
for method in ("pgd", "frank_wolfe"):
    assert main(["solve-limit", "--graphon", out + "/k.json", "--masses", "0.5,0.25,0.25",
                 "--grid", "4", "--method", method, "--restarts", "2"]) == 0
# a zero mass gets an exactly empty column
import json
assert main(["gen", "--family", "halfgraph", "--n", "22", "--out", out + "/h.json",
             "--limit-out", out + "/hk.json"]) == 0
def solve(masses, method):
    assert main(["solve-limit", "--graphon", out + "/hk.json", "--masses", masses, "--grid", "4",
                 "--method", method, "--restarts", "2", "--out", out + "/z.json"]) == 0
    with open(out + "/z.json") as fh:
        return json.load(fh)
for method in ("pgd", "frank_wolfe"):
    r = solve("0,0,1", method)
    assert r["value"] == 0 and all(row == [0, 0, 1] for row in r["theta"])
    assert all(row[2] == 0 for row in solve("0.5,0.5,0", method)["theta"])
"""


def test_three_label_solve_limit_runs_without_scipy(tmp_path):
    src = _ROOT / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SMOKE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_converge_cli_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    argv = [
        "converge",
        "--family",
        "halfgraph",
        "--n",
        "8,16",
        "--grid",
        "12",
        "--restarts",
        "4",
        "--seed",
        "1",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    lines1 = out1.read_text().splitlines()
    lines2 = out2.read_text().splitlines()
    assert lines1[0] == "n,F_n,F_exact_flag,J_star,gap,cutnorm,cutnorm_exact_flag,seconds"
    # identical up to the wall-time column
    strip = lambda lines: [",".join(ln.split(",")[:-1]) for ln in lines]
    assert strip(lines1) == strip(lines2)
    row8 = lines1[1].split(",")
    row16 = lines1[2].split(",")
    assert row8[0] == "8" and row8[2] == "true"
    # both gap columns shrink (or hold) along the doubling 8 -> 16
    assert float(row16[4]) <= float(row8[4]) + 1e-9
    assert float(row16[5]) <= float(row8[5]) + 1e-9


def test_converge_flags_heuristic_rows_above_exact_cap(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "converge",
            "--family",
            "complete",
            "--n",
            "30",
            "--grid",
            "16",
            "--restarts",
            "2",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[2] == "false"  # swap descent, not exact
    assert float(row[1]) == 2.0  # every balanced cut of a complete graph
    assert row[6] == "false"  # 30 blocks exceed the exact cut-norm cap


def test_converge_heuristic_blocks_row(tmp_path):
    out = tmp_path / "c.csv"
    argv = ["converge", "--family", "blocks", "--lambdas", "0.45,0.35,0.2", "--n", "60"]
    argv += ["--grid", "20", "--restarts", "8", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "60" and row[2] == "false"  # above the exact cap: swap descent
    # the best known bisection splits the 12-node block 3 | 9 and cuts one bridge
    assert abs(float(row[1]) - (0.06 + 8 / 60**2)) <= 1e-12


def test_converge_complete_gap_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert (
        main(
            [
                "converge",
                "--family",
                "complete",
                "--n",
                "8,12,16",
                "--grid",
                "16",
                "--restarts",
                "2",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = out.read_text().splitlines()[1:]
    for row in rows:
        parts = row.split(",")
        assert float(parts[1]) == 2.0
        assert float(parts[3]) == 2.0
        assert float(parts[4]) == 0.0


def test_converge_json_rows_match_csv(capsys):
    argv = ["converge", "--family", "bipartite", "--n", "8,12", "--grid", "8"]
    argv += ["--restarts", "2", "--seed", "3"]
    code, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header = CSV_HEADER.split(",")
    csv_rows = [line.split(",") for line in out_csv.splitlines()[1:]]
    json_rows = json.loads(out_json)
    assert len(json_rows) == len(csv_rows) == 2
    for obj, cells in zip(json_rows, csv_rows):
        assert list(obj) == header
        # the rows come from two runs, so only the wall time may differ
        for key, cell in list(zip(header, cells))[:-1]:
            value = obj[key]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert float(cell) == value


def _run_convergence_script():
    path = _ROOT / "scripts" / "run_convergence.py"
    spec = importlib.util.spec_from_file_location("run_convergence", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_convergence_script_smoke(tmp_path):
    script = _run_convergence_script()
    argv = ["--family", "complete", "--restarts", "2", "--outdir", str(tmp_path)]
    assert script.main(argv) == 0
    lines = (tmp_path / "complete.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    # J* of the complete limit is exact, so every gap is 0
    for line in lines[1:]:
        assert float(line.split(",")[4]) == 0.0


def test_run_convergence_script_negative_seed_exits_2(tmp_path, capsys):
    argv = ["--family", "complete", "--seed", "-1", "--outdir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        _run_convergence_script().main(argv)
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["echo"]:
            assert argv[2] == ">" and len(argv) == 4, line
            pathlib.Path(argv[3]).write_text(argv[1] + "\n")
        elif argv:
            assert argv[0] == "graphlim" and main(argv[1:]) == 0, line
            capsys.readouterr()


def test_converge_blocks_family_tracks_vertex_minimum(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "converge",
            "--family",
            "blocks",
            "--lambdas",
            "0.45,0.35,0.2",
            "--n",
            "10,20",
            "--grid",
            "20",
            "--restarts",
            "6",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    j_star = float(rows[0][3])
    assert abs(j_star - 0.06) <= 1e-6  # the dumbbell vertex minimum
    gaps = [float(r[4]) for r in rows]
    assert gaps[1] <= gaps[0] + 1e-9


def _j_stars_without_the_method(capsys, monkeypatch, argv):
    # the J_star column under each method, with minimize_limit_energy refused;
    # both methods must print the same table
    import graphlim.experiments as exp

    def refuse(*args, **kwargs):
        raise AssertionError("this J* needs no minimize_limit_energy")

    monkeypatch.setattr(exp, "minimize_limit_energy", refuse)
    tables = []
    for method in METHODS:
        code, out, _ = run(capsys, *argv, "--method", method)
        assert code == 0
        tables.append([line.rsplit(",", 1)[0] for line in out.splitlines()])
    assert tables[0] == tables[1]
    return [float(line.split(",")[3]) for line in tables[0][1:]]


def test_converge_takes_j_star_of_an_on_grid_step_limit_without_the_method(
    capsys, monkeypatch
):
    argv = ["converge", "--family", "blocks", "--lambdas", "0.3,0.3,0.4", "--n", "10,20"]
    argv += ["--grid", "20", "--restarts", "3", "--seed", "2"]
    for j_star in _j_stars_without_the_method(capsys, monkeypatch, argv):
        assert abs(j_star - 0.16) <= 1e-12  # 8 * 0.2 * 0.1


@pytest.mark.parametrize("grid, j_star", [(2, 1 / 2), (4, 7 / 16), (6, 1 / 3), (8, 23 / 64)])
def test_converge_takes_the_half_graph_j_star_on_a_small_grid_without_the_method(
    capsys, monkeypatch, grid, j_star
):
    argv = ["converge", "--family", "halfgraph", "--n", "8,12", "--grid", str(grid)]
    argv += ["--restarts", "1", "--seed", "0"]
    for value in _j_stars_without_the_method(capsys, monkeypatch, argv):
        assert abs(value - j_star) <= 1e-12


def test_converge_half_graph_at_grid_6_reads_the_grid_minimum_with_one_restart(capsys):
    # one PGD restart from seed 0 ends at the local minimum 4/9
    argv = ["converge", "--family", "halfgraph", "--n", "8,12", "--grid", "6"]
    code, out, _ = run(capsys, *argv, "--restarts", "1", "--seed", "0")
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["0.33333333333333337"] * 2


def test_converge_solves_an_off_grid_limit_with_its_method(capsys, monkeypatch):
    import graphlim.experiments as exp

    methods = []

    def recording(*args, **kwargs):
        methods.append(kwargs["method"])
        return minimize_limit_energy(*args, **kwargs)

    monkeypatch.setattr(exp, "minimize_limit_energy", recording)
    # a split off the grid, and the half graph above the 10-cell cap
    for family in (["bipartite", "--gamma", "0.3", "--grid", "16"], ["halfgraph", "--grid", "12"]):
        argv = ["converge", "--family", *family, "--n", "8", "--restarts", "2"]
        for method in METHODS:
            assert run(capsys, *argv, "--method", method)[0] == 0
    assert methods == list(METHODS) * 2


def test_converge_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "bipartite",
                "n": [12],
                "grid": 16,
                "gamma": 0.5,
                "restarts": 4,
                "seed": 0,
            }
        )
    )
    out = tmp_path / "c.csv"
    code = main(["converge", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "12"
    assert float(row[1]) == 1.0
    assert abs(float(row[3]) - 1.0) <= 1e-6


def test_converge_rejects_unbalanced_masses(tmp_path, capsys):
    # the discrete side is always a bisection, so only (1/2, 1/2) compares
    argv = ["converge", "--family", "bipartite", "--n", "8", "--grid", "8"]
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, *argv, "--masses", "0.25,0.75", "--out", str(out))
    assert code == 2 and "masses" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "bipartite", "n": [8], "masses": [0.25, 0.75]}))
    code, _, err = run(capsys, "converge", "--config", str(cfg), "--out", str(out))
    assert code == 2 and "masses" in err
    assert not out.exists()


def test_gen_wrandom_deterministic(tmp_path, capsys):
    kernel = tmp_path / "k.json"
    fileio.write_graphon(kernel, ConstantKernel(0.5))
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for out in (g1, g2):
        code, _, _ = run(
            capsys,
            "gen",
            "--family",
            "wrandom",
            "--n",
            "12",
            "--kernel",
            str(kernel),
            "--seed",
            "9",
            "--out",
            str(out),
        )
        assert code == 0
    assert g1.read_bytes() == g2.read_bytes()
    assert 0 < fileio.read_graph(g1).edge_count < 66


def test_cli_exit_codes(tmp_path, capsys):
    # usage: unknown flag
    assert main(["cutnorm", "--nonsense"]) == 2
    # usage: missing file
    assert main(["cutnorm", "--a", str(tmp_path / "missing.json")]) == 2
    # capacity: brute bisection above the cap
    big = tmp_path / "big.json"
    run(capsys, "gen", "--family", "complete", "--n", "30", "--out", str(big))
    assert main(["solve-discrete", "--graph", str(big), "--method", "brute"]) == 3
    # infeasible: masses not a probability vector
    half = tmp_path / "half.json"
    fileio.write_graphon(half, ConstantKernel(0.5))
    assert main(["solve-limit", "--graphon", str(half), "--masses", "0.7,0.7"]) == 4
    # usage: a grid without cells
    for grid in ("0", "-2"):
        assert main(["solve-limit", "--graphon", str(half), "--grid", grid]) == 2
    # odd n for bisection
    assert main(["converge", "--family", "halfgraph", "--n", "7", "--grid", "12"]) == 2


# a NaN or infinite mass or block fraction fails its range check like any other bad value
_NON_FINITE = [
    (["solve-limit", "--graphon", "{kernel}", "--masses", "0.5,nan"], 4,
     "masses must be a probability vector"),
    (["solve-limit", "--graphon", "{kernel}", "--masses", "inf,-inf"], 4,
     "masses must be a probability vector"),
    (["gen", "--family", "blocks", "--n", "8", "--lambdas", "0.5,nan", "--out", "{out}"], 2,
     "block fractions"),
    (["converge", "--family", "blocks", "--n", "8", "--grid", "4", "--lambdas", "0.5,nan",
      "--out", "{out}"], 2, "block fractions"),
]


@pytest.mark.parametrize(
    "argv, code, message", _NON_FINITE, ids=["masses-nan", "masses-inf", "gen", "converge"]
)
def test_non_finite_masses_and_fractions_exit_with_their_code(
    tmp_path, capsys, argv, code, message
):
    kernel, out = tmp_path / "k.json", tmp_path / "out"
    fileio.write_graphon(kernel, HalfGraphKernel())
    got, stdout, err = run(capsys, *(a.format(kernel=kernel, out=out) for a in argv))
    assert got == code and message in err
    assert not stdout and not out.exists()


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["cutnorm", "--help"]) == 0


def test_cutnorm_csv_format(tmp_path, capsys):
    cpath = tmp_path / "checker1.json"
    run(capsys, "gen", "--family", "checkerboard", "--n", "1", "--out", str(cpath))
    hpath = tmp_path / "half.json"
    fileio.write_graphon(hpath, ConstantKernel(0.5))
    code, out, _ = run(
        capsys, "cutnorm", "--a", str(cpath), "--b", str(hpath), "--format", "csv"
    )
    assert code == 0
    lines = dict(ln.split(",", 1) for ln in out.strip().splitlines())
    assert float(lines["value"]) == 0.125
    assert lines["exact"] == "true"


def test_csv_renders_a_missing_value_empty(tmp_path, capsys):
    # JSON writes null for the discrete residual and for the multiplier of a
    # field with no interior cell; CSV leaves the value empty
    gpath, kpath, tpath = tmp_path / "g.json", tmp_path / "half.json", tmp_path / "theta.json"
    run(capsys, "gen", "--family", "halfgraph", "--n", "4", "--out", str(gpath))
    fileio.write_graphon(kpath, HalfGraphKernel())
    tpath.write_text('{"theta": [[1.0, 0.0], [0.0, 1.0]]}\n')
    commands = {
        "residual": ["solve-discrete", "--graph", str(gpath), "--method", "brute"],
        "multiplier": ["kkt", "--graphon", str(kpath), "--theta", str(tpath)],
    }
    for key, argv in commands.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)[key] is None
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert f"\n{key},\n" in "\n" + out


def test_converge_csv_numbers_round_trip(tmp_path):
    out = tmp_path / "c.csv"
    main(
        [
            "converge",
            "--family",
            "halfgraph",
            "--n",
            "8,12",
            "--grid",
            "12",
            "--restarts",
            "4",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    for line in out.read_text().splitlines()[1:]:
        for cellvalue in line.split(","):
            if cellvalue in ("true", "false"):
                continue
            parsed = float(cellvalue)
            assert fileio.format_float(parsed) == fileio.format_float(float(fileio.format_float(parsed)))
            assert float(fileio.format_float(parsed)) == parsed


def test_run_converge_partial_flush(tmp_path, monkeypatch):
    # a failing row still leaves the completed prefix on disk, and the rows
    # after it are never solved
    import graphlim.experiments as exp

    out = tmp_path / "c.csv"
    config = ExperimentConfig(
        family="halfgraph", ns=(8, 10, 12), grid=12, restarts=2, seed=0, out=str(out)
    )
    original = exp._solve_row
    solved = []

    def explode(config, n, j_star):
        solved.append(n)
        if n == 10:
            raise RuntimeError("boom")
        return original(config, n, j_star)

    monkeypatch.setattr(exp, "_solve_row", explode)
    with pytest.raises(RuntimeError, match="boom"):
        exp.run_converge(config)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2
    assert lines[1].startswith("8,")
    assert solved == [8, 10]


def test_converge_near_grid_boundary_is_not_exact():
    # the split at 0.3 + 5e-10 is 5e-9 cells off the 10-cell grid, which
    # cell_averages rejects, so the labeled gap is not the exact gap either
    gamma = 0.3000000005
    with pytest.raises(ParameterError, match="align"):
        cell_averages(StepGraphon([gamma, 1.0 - gamma], [[0.0, 1.0], [1.0, 0.0]]), 10)
    for g, flag in ((gamma, False), (0.3, True)):
        config = ExperimentConfig(family="bipartite", ns=(10,), grid=10, gamma=g, restarts=2)
        (row,) = run_converge(config)
        assert row.cutnorm_exact is flag


def test_cutnorm_exact_flag_follows_the_grid_rule(tmp_path, capsys):
    gpath, kpath, spath = tmp_path / "g.json", tmp_path / "k.json", tmp_path / "s.json"
    run(capsys, "gen", "--family", "blocks", "--lambdas", "0.45,0.35,0.2", "--n", "20",
        "--out", str(gpath), "--limit-out", str(kpath))
    run(capsys, "graphon", "--graph", str(gpath), "--out", str(spath))
    half = tmp_path / "h.json"
    fileio.write_graphon(half, HalfGraphKernel())
    cases = [
        (kpath, True),  # blocks of 9, 7 and 4 cells
        (None, True),
        (spath, True),  # a step file is subtracted block by block
        (half, False),  # not a step kernel
    ]
    for b, exact in cases:
        argv = ["cutnorm", "--a", str(spath)] + (["--b", str(b)] if b else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["exact"] is exact


def test_solve_discrete_sizes_need_local_search(tmp_path, capsys):
    gpath = tmp_path / "h.json"
    run(capsys, "gen", "--family", "halfgraph", "--n", "8", "--out", str(gpath))
    argv = ["solve-discrete", "--graph", str(gpath), "--sizes", "3,5"]
    code, _, err = run(capsys, *argv, "--method", "brute")
    assert code == 2 and "--sizes" in err
    code, out, _ = run(capsys, *argv, "--method", "local")
    assert code == 0
    assert sorted(json.loads(out)["labels"]).count(1) in (3, 5)


@pytest.mark.parametrize("sizes", ["4,4", "20,-4"])
def test_solve_discrete_sizes_that_do_not_count_the_nodes_exit_2(tmp_path, capsys, sizes):
    gpath, out = str(tmp_path / "h.json"), tmp_path / "out.json"
    run(capsys, "gen", "--family", "halfgraph", "--n", "16", "--out", gpath)
    argv = ["solve-discrete", "--graph", gpath, "--method", "local", "--sizes", sizes]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and "--sizes" in err and "n=16" in err
    assert not stdout and not out.exists()


def test_solve_discrete_default_bisection_puts_the_larger_part_on_plus_one(tmp_path, capsys):
    # at odd n the default sizes are ((n + 1) // 2, n // 2), labels +1 and -1
    gpath = str(tmp_path / "k5.json")
    run(capsys, "gen", "--family", "complete", "--n", "5", "--out", gpath)
    argv = ["solve-discrete", "--graph", gpath, "--method", "local", "--restarts", "3"]
    code, out, _ = run(capsys, *argv, "--seed", "2")
    assert code == 0
    assert out == (
        '{"value": 1.9199999999999999, "method": "local_search", "seed": 2, "restarts": 3, '
        '"iterations": 0, "residual": null, "labels": [-1, 1, 1, 1, -1]}\n'
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--family", "halfgraph", "--n", "8", "--format", "csv"], "--format"),
        (["graphon", "--graph", "{graph}", "--format", "csv"], "--format"),
        (["graphon", "--graph", "{graph}", "--seed", "3"], "--seed"),
        (["homdensity", "--motif", "edge", "--graph", "{graph}", "--seed", "5"], "--seed"),
        (["kkt", "--graphon", "{kernel}", "--theta", "{theta}", "--seed", "1"], "--seed"),
        (["converge", "--family", "halfgraph", "--n", "8", "--grid", "8",
          "--masses", "0.5,0.5"], "--masses"),
        (["converge", "--config", "{cfg}"], "'restart'"),
    ],
    ids=["gen-format", "graphon-format", "graphon-seed", "homdensity-seed", "kkt-seed",
         "converge-masses", "config-restart"],
)
def test_flags_and_config_keys_a_command_does_not_act_on_exit_2(tmp_path, capsys, argv, named):
    # every argv but its one rejected flag or key runs on these valid files
    files = {k: str(tmp_path / k) for k in ("graph", "kernel", "theta", "cfg")}
    fileio.write_graph(files["graph"], fileio.graph_from_dict({"n": 4, "edges": [[1, 2], [3, 4]]}))
    fileio.write_graphon(files["kernel"], HalfGraphKernel())
    pathlib.Path(files["theta"]).write_text(json.dumps({"theta": [[0.5, 0.5]] * 4}))
    pathlib.Path(files["cfg"]).write_text(
        json.dumps({"family": "halfgraph", "n": [8], "restart": 50})
    )
    out = tmp_path / "out.data"
    code, stdout, err = run(capsys, *(a.format(**files) for a in argv), "--out", str(out))
    assert code == 2 and named in err
    assert not stdout and not out.exists()


def test_converge_json_format_with_out_exits_2(tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["converge", "--family", "halfgraph", "--n", "8", "--grid", "8", "--format", "json"]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and "--out" in err and "--format json" in err
    assert not stdout and not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "halfgraph", "n": [8], "grid": 8, "out": str(out)}))
    code, stdout, err = run(capsys, "converge", "--config", str(cfg), "--format", "json")
    assert code == 2 and not stdout and not out.exists()


# every option each subcommand takes, besides -h/--help; a new flag is one edit here
_FLAGS = {
    "gen": "--family --n --lambdas --gamma --kernel --limit-out --out --seed",
    "graphon": "--graph --out",
    "cutnorm": "--a --b --mode --restarts --seed --out --format",
    "homdensity": "--motif --graph --graphon --out --format",
    "solve-discrete": "--graph --method --sizes --restarts --seed --out --format",
    "solve-limit": "--graphon --grid --masses --method --restarts --seed --out --format",
    "kkt": "--graphon --theta --out --format",
    "converge": "--family --n --grid --gamma --lambdas --method --restarts --config "
    "--seed --out --format",
}


def test_each_subcommand_takes_exactly_its_flags():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(_FLAGS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == set(_FLAGS[name].split()), name


# flags that only one mode of a subcommand acts on: (subcommand, the flags
# that pick another mode, empty for the default mode, the flag, a value)
_MODE_ONLY = [
    ("solve-discrete", ["--method", "brute"], "--sizes", "4,4"),
    ("solve-discrete", ["--method", "brute"], "--restarts", "5"),
    ("solve-discrete", [], "--seed", "3"),
    ("cutnorm", ["--mode", "exact"], "--restarts", "5"),
    ("cutnorm", [], "--seed", "3"),
]


@pytest.mark.parametrize(
    "command, mode, flag, value",
    _MODE_ONLY,
    ids=["brute-sizes", "brute-restarts", "brute-seed", "exact-restarts", "exact-seed"],
)
def test_flags_the_running_mode_does_not_act_on_exit_2(
    tmp_path, capsys, command, mode, flag, value
):
    gpath, spath, out = (str(tmp_path / f) for f in ("g.json", "s.json", "out.json"))
    run(capsys, "gen", "--family", "halfgraph", "--n", "8", "--out", gpath)
    run(capsys, "graphon", "--graph", gpath, "--out", spath)
    source = ["--graph", gpath] if command == "solve-discrete" else ["--a", spath]
    code, stdout, err = run(capsys, command, *source, *mode, flag, value, "--out", out)
    assert code == 2 and flag in err
    assert not stdout and not pathlib.Path(out).exists()


# options that only some families act on: option -> (the family that does,
# a value); every other family exits 2 naming it, and so does
# `gen --family checkerboard --limit-out`, whose --out is the kernel itself
_FAMILY_ONLY = {
    "gen": {
        "--kernel": ("wrandom", "{kernel}"),
        "--seed": ("wrandom", "3"),
        "--lambdas": ("blocks", "0.5,0.5"),
        "--gamma": ("bipartite", "0.3"),
    },
    "converge": {"--gamma": ("bipartite", 0.3), "--lambdas": ("blocks", [0.5, 0.5])},
}
# an empty value is not an absent flag or key: each exits 2 naming it
_CONVERGE_HALF = ["converge", "--family", "halfgraph", "--n", "8"]
_CONVERGE_HALF += ["--grid", "4", "--restarts", "1"]
_EMPTY = [
    (_CONVERGE_HALF + ["--lambdas", "", "--out", "{out}"], "--lambdas"),
    (_CONVERGE_HALF + ["--config", "", "--out", "{out}"], "--config"),
    (_CONVERGE_HALF + ["--out", ""], "--out"),
    (["converge", "--config", "{cfg}"], "config field 'out'"),
    (["gen", "--family", "halfgraph", "--n", "4", "--limit-out", "", "--out", "{out}"],
     "--limit-out"),
]


# a negative seed exits 2 naming it on every route, including those that draw
# no random number, such as the bipartite converge whose J* is exact
_NEGATIVE_SEED = {
    "converge-bipartite": ["converge", "--family", "bipartite", "--n", "8", "--grid", "16"],
    "converge-halfgraph": _CONVERGE_HALF,
    "solve-limit": ["solve-limit", "--graphon", "{kernel}", "--grid", "4", "--restarts", "1"],
    "solve-discrete": ["solve-discrete", "--graph", "{graph}", "--method", "local"],
    "cutnorm": ["cutnorm", "--a", "{step}", "--mode", "heuristic"],
    "gen-wrandom": ["gen", "--family", "wrandom", "--kernel", "{kernel}", "--n", "4"],
}


@pytest.mark.parametrize("source", [*_NEGATIVE_SEED, "config"])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, source):
    files = {k: str(tmp_path / f"{k}.json") for k in ("graph", "kernel", "step", "cfg")}
    fileio.write_graph(files["graph"], fileio.graph_from_dict({"n": 4, "edges": [[1, 2]]}))
    fileio.write_graphon(files["kernel"], HalfGraphKernel())
    fileio.write_graphon(files["step"], StepGraphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]))
    out = tmp_path / "out.data"
    if source == "config":
        config = {"family": "bipartite", "n": [8], "grid": 16, "seed": -5, "out": str(out)}
        pathlib.Path(files["cfg"]).write_text(json.dumps(config))
        argv, named = ["converge", "--config", files["cfg"]], "config field 'seed'"
    else:
        argv = [a.format(**files) for a in _NEGATIVE_SEED[source]]
        argv, named = [*argv, "--seed", "-5", "--out", str(out)], "--seed"
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and named in err
    assert not stdout and not out.exists()


@pytest.mark.parametrize("argv, named", _EMPTY, ids=[n for _, n in _EMPTY])
def test_empty_values_exit_2_naming_the_flag(tmp_path, capsys, argv, named):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    config = {"family": "halfgraph", "n": [8], "grid": 4, "restarts": 1, "out": ""}
    cfg.write_text(json.dumps(config))
    code, stdout, err = run(capsys, *(a.format(cfg=cfg, out=out) for a in argv))
    assert code == 2 and named in err
    assert not stdout and not out.exists()


_GEN_FAMILIES = ("complete", "blocks", "bipartite", "halfgraph", "checkerboard", "wrandom")
_CONVERGE_FAMILIES = ("complete", "blocks", "bipartite", "halfgraph")
# what each family needs besides the option under test
_FAMILY_NEEDS = {"blocks": ["--lambdas", "0.5,0.5"], "wrandom": ["--kernel", "{kernel}"]}
_IGNORED = (
    [
        ("gen", family, flag, value)
        for flag, (owner, value) in _FAMILY_ONLY["gen"].items()
        for family in _GEN_FAMILIES
        if family != owner
    ]
    + [("gen", "checkerboard", "--limit-out", "{limit}")]
    + [
        (source, family, flag, value)
        for flag, (owner, value) in _FAMILY_ONLY["converge"].items()
        for family in _CONVERGE_FAMILIES
        if family != owner
        for source in ("converge", "config")
    ]
)  # 21 gen pairs and 6 converge pairs, the latter as flag and as config key


@pytest.mark.parametrize(
    "command, family, option, value",
    _IGNORED,
    ids=[f"{c}-{f}-{o.lstrip('-')}" for c, f, o, _ in _IGNORED],
)
def test_options_the_family_does_not_act_on_exit_2(
    tmp_path, capsys, command, family, option, value
):
    files = {k: str(tmp_path / f"{k}.json") for k in ("kernel", "limit", "cfg", "out")}
    fileio.write_graphon(files["kernel"], ConstantKernel(0.5))
    needs = [a.format(**files) for a in _FAMILY_NEEDS.get(family, [])]
    if command == "gen":
        argv = ["gen", "--family", family, "--n", "4", *needs, option, value.format(**files)]
        named = option
    elif command == "converge":
        argv = ["converge", "--family", family, "--n", "8", "--grid", "4", "--restarts", "1"]
        argv += [*needs, option, ",".join(map(str, np.ravel(value)))]
        named = option
    else:
        config = {"family": family, "n": [8], "grid": 4, "restarts": 1, option[2:]: value}
        if family == "blocks":
            config["lambdas"] = [0.5, 0.5]
        pathlib.Path(files["cfg"]).write_text(json.dumps(config))
        argv = ["converge", "--config", files["cfg"]]
        named = f"config field '{option[2:]}'"
    code, stdout, err = run(capsys, *argv, "--out", files["out"])
    assert code == 2 and named in err
    assert not stdout
    assert not any(pathlib.Path(files[k]).exists() for k in ("limit", "out"))


def test_family_only_options_keep_their_defaults_in_their_family(tmp_path, capsys):
    kernel = str(tmp_path / "k.json")
    fileio.write_graphon(kernel, ConstantKernel(0.5))

    def written(*argv):
        graph, limit = tmp_path / "g.json", tmp_path / "l.json"
        assert main(["gen", *argv, "--out", str(graph), "--limit-out", str(limit)]) == 0
        return graph.read_bytes(), limit.read_bytes()

    bipartite = ["--family", "bipartite", "--n", "6"]
    assert written(*bipartite) == written(*bipartite, "--gamma", "0.5")
    assert written(*bipartite) != written(*bipartite, "--gamma", "0.3")
    wrandom = ["--family", "wrandom", "--n", "12", "--kernel", kernel]
    assert written(*wrandom) == written(*wrandom, "--seed", "0")


def test_mode_only_flags_keep_their_defaults_in_their_mode(tmp_path, capsys):
    gpath, spath = str(tmp_path / "g.json"), str(tmp_path / "s.json")
    run(capsys, "gen", "--family", "halfgraph", "--n", "8", "--out", gpath)
    run(capsys, "graphon", "--graph", gpath, "--out", spath)
    local = ["solve-discrete", "--graph", gpath, "--method", "local"]
    out = run(capsys, *local)[1]
    report = json.loads(out)
    assert (report["seed"], report["restarts"]) == (0, 8)
    assert run(capsys, *local, "--restarts", "8", "--seed", "0")[1] == out
    report = json.loads(run(capsys, *local, "--restarts", "2", "--seed", "3")[1])
    assert (report["seed"], report["restarts"]) == (3, 2)
    heuristic = ["cutnorm", "--a", spath, "--mode", "heuristic"]
    code, out, _ = run(capsys, *heuristic)
    assert code == 0
    assert run(capsys, *heuristic, "--restarts", "32", "--seed", "0")[1] == out


# counts the ArgumentParser objects that importing graphlim.cli and two main
# calls build, in a fresh process: this one has imported graphlim.cli already
_PARSERS_BUILT = """
import argparse
import sys

built = []
init = argparse.ArgumentParser.__init__


def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting
import graphlim.cli

assert built == [], built
assert graphlim.cli.main(["graphon", "--graph", sys.argv[1]]) == 2
once = list(built)
assert graphlim.cli.main(["graphon", "--graph", sys.argv[1]]) == 2
assert built == once and once.count("graphlim") == 1, built
"""


def test_main_builds_one_parser_and_importing_builds_none(tmp_path):
    src = _ROOT / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _PARSERS_BUILT, str(tmp_path / "missing.json")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
