import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from graphlim import fileio
from graphlim.cli import main
from graphlim.experiments import CSV_HEADER, ExperimentConfig, run_converge
from graphlim.graphons import ConstantKernel


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
    code, out, _ = run(
        capsys,
        "solve-limit",
        "--graphon",
        str(kpath),
        "--grid",
        "12",
        "--restarts",
        "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] <= 0.5 + 1e-9
    theta_path = tmp_path / "theta.csv"
    from graphlim.fields import ThetaField

    fileio.write_theta(theta_path, ThetaField(np.asarray(report["theta"])))
    code, out, _ = run(capsys, "kkt", "--graphon", str(kpath), "--theta", str(theta_path))
    assert code == 0
    kkt = json.loads(out)
    assert "residual" in kkt and "phi" in kkt


def test_kkt_rejects_three_label_theta(tmp_path, capsys):
    from graphlim.fields import ThetaField
    from graphlim.graphons import HalfGraphKernel

    kpath, tpath = tmp_path / "half.json", tmp_path / "theta.csv"
    fileio.write_graphon(kpath, HalfGraphKernel())
    fileio.write_theta(tpath, ThetaField(np.tile([0.5, 0.25, 0.25], (4, 1))))
    code, _, err = run(capsys, "kkt", "--graphon", str(kpath), "--theta", str(tpath))
    assert code == 2 and "two-label" in err


def test_kkt_rejects_nan_theta(tmp_path, capsys):
    from graphlim.graphons import HalfGraphKernel

    kpath, tpath = tmp_path / "half.json", tmp_path / "theta.csv"
    fileio.write_graphon(kpath, HalfGraphKernel())
    tpath.write_text("cell,theta_1,theta_2\n1,nan,nan\n2,0.5,0.5\n")
    code, out, err = run(capsys, "kkt", "--graphon", str(kpath), "--theta", str(tpath))
    assert code == 2 and out == "" and "[0,1]" in err


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
"""


def test_three_label_solve_limit_runs_without_scipy(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
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


def test_run_convergence_script_smoke(tmp_path):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_convergence.py"
    spec = importlib.util.spec_from_file_location("run_convergence", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--family", "complete", "--restarts", "2", "--outdir", str(tmp_path)]
    assert script.main(argv) == 0
    lines = (tmp_path / "complete.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    # J* may sit an ulp below the exact minimum 2, so the gap is not exactly 0
    for line in lines[1:]:
        assert float(line.split(",")[4]) <= 1e-12


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
