import json
import math

import pytest

from torushom.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def write_points(tmp_path, capsys, lam=30.0, seed=1, d=1):
    path = tmp_path / "points.json"
    code = main(["sample", "--lambda", str(lam), "--d", str(d),
                 "--seed", str(seed), "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    return path


def test_sample_round_trip(tmp_path, capsys):
    path = write_points(tmp_path, capsys)
    doc = json.loads(path.read_text())
    assert doc["d"] == 1 and doc["a"] == 1.0
    assert all(0.0 <= x[0] < 1.0 for x in doc["points"])


def test_sample_requires_exactly_one_law(capsys):
    code, doc = run_cli(capsys, "sample", "--lambda", "10", "--n-points", "5",
                        "--seed", "1")
    assert code == 1 and "error" in doc
    code, doc = run_cli(capsys, "sample", "--seed", "1")
    assert code == 1 and "error" in doc


def test_sample_deterministic(capsys):
    code1, doc1 = run_cli(capsys, "sample", "--lambda", "20", "--seed", "9")
    code2, doc2 = run_cli(capsys, "sample", "--lambda", "20", "--seed", "9")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_complex_and_homology(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    code, doc = run_cli(capsys, "complex", "--in", str(path), "--eps", "0.05")
    assert code == 0
    assert doc["truncated"] is False
    assert doc["N"][0] == len(json.loads(path.read_text())["points"])
    code, hdoc = run_cli(capsys, "homology", "--in", str(path),
                         "--eps", "0.05")
    assert code == 0
    assert hdoc["violations"] == []
    assert hdoc["chi_counts"] == hdoc["chi_betti"]
    # chi from counts agrees with the complex subcommand
    chi = sum((-1) ** i * n for i, n in enumerate(doc["N"]))
    assert hdoc["chi_counts"] == chi


def test_complex_rejects_negative_cap(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    code, doc = run_cli(capsys, "complex", "--in", str(path), "--eps", "0.05",
                        "--cap", "-1")
    assert code == 1
    assert "cap" in doc["error"]


def test_complex_rejects_negative_max_dim(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    code, doc = run_cli(capsys, "complex", "--in", str(path), "--eps", "0.05",
                        "--max-dim", "-5")
    assert code == 1
    assert "max_dim" in doc["error"]


def test_experiment_rejects_negative_max_dim(capsys):
    code, doc = run_cli(capsys, "experiment", "--lambda", "10", "--eps", "0.05",
                        "--reps", "2", "--seed", "1", "--quantities", "N_2",
                        "--max-dim", "-1")
    assert code == 1
    assert "max_dim" in doc["error"]


def test_moment_mean_chi_example(capsys):
    code, doc = run_cli(capsys, "moment", "--quantity", "mean_chi",
                        "--lambda", "30", "--eps", "0.05")
    assert code == 0
    assert doc["value"] == pytest.approx(30 * math.exp(-3), abs=1e-12)


def test_moment_covariance(capsys):
    code, doc = run_cli(capsys, "moment", "--quantity", "cov_Nk_Nl",
                        "--lambda", "30", "--eps", "0.05",
                        "--k", "2", "--l", "2")
    assert code == 0 and doc["value"] == pytest.approx(1170.0)


def test_moment_missing_argument(capsys):
    code, doc = run_cli(capsys, "moment", "--quantity", "cov_Nk_Nl",
                        "--lambda", "30", "--eps", "0.05", "--k", "2")
    assert code == 1 and "error" in doc


def test_moment_third_requires_seed(capsys):
    code, doc = run_cli(capsys, "moment", "--quantity", "third_moment",
                        "--lambda", "20", "--eps", "0.05", "--k", "1")
    assert code == 1 and "seed" in doc["error"]


def test_moment_third_k1(capsys):
    code, doc = run_cli(capsys, "moment", "--quantity", "third_moment",
                        "--lambda", "20", "--eps", "0.05", "--k", "1",
                        "--oracle-samples", "10000", "--seed", "1")
    assert code == 0
    assert doc["value"] == pytest.approx(20.0, abs=1e-9)


def test_tail_beta0_example(capsys):
    code, doc = run_cli(capsys, "tail", "--quantity", "beta0",
                        "--lambda", "10", "--y", "20")
    assert code == 0
    assert doc["bound"] == pytest.approx(0.03125)


def test_subcount(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=25.0, seed=8)
    gpath = tmp_path / "gamma.json"
    gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    code, doc = run_cli(capsys, "subcount", "--in", str(path),
                        "--gamma", str(gpath), "--eps", "0.1")
    assert code == 0
    assert doc["c_gamma"] == 2
    assert doc["g_gamma"] >= 0


def test_experiment(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    code, doc = run_cli(capsys, "experiment", "--lambda", "20",
                        "--eps", "0.05", "--reps", "40", "--seed", "3",
                        "--quantities", "n_points,N_2,beta_0",
                        "--raw-csv", str(raw))
    assert code == 0
    assert doc["excluded"] == 0
    est = doc["estimates"]["n_points"]
    assert abs(est["mean"] - 20.0) < 5 * est["stderr"]
    lines = raw.read_text().splitlines()
    assert lines[0] == "rep,quantity,value"
    assert len(lines) == 1 + 3 * 40
    n_points = [float(line.split(",")[2]) for line in lines[1:]
                if line.split(",")[1] == "n_points"]
    assert sum(n_points) / len(n_points) == pytest.approx(est["mean"])


def test_coverage(capsys):
    code, doc = run_cli(capsys, "coverage", "--eps", "0.2",
                        "--lambdas", "60", "--reps", "30", "--seed", "5")
    assert code == 0
    assert doc["torus_betti"] == [1, 1]
    assert doc["points"][0]["match_frequency"] > 0.9


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite {name} in JSON output")
    return json.loads(text, parse_constant=reject)


def test_experiment_output_is_strict_json(capsys):
    # one replication has no standard error: null, not NaN
    code = main(["experiment", "--lambda", "20", "--eps", "0.05",
                 "--reps", "1", "--seed", "3", "--quantities", "N_2"])
    assert code == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["estimates"]["N_2"]["stderr"] is None
    assert doc["estimates"]["N_2"]["variance"] is None


def test_coverage_rejects_zero_replications(capsys):
    code = main(["coverage", "--eps", "0.2", "--lambdas", "60", "--reps", "0",
                 "--seed", "5"])
    assert code == 1
    assert "reps" in _strict_json(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("lambdas, message", [
    ("", "at least one intensity"), ("30,-5", "intensity must be positive")])
def test_coverage_rejects_bad_intensities(capsys, lambdas, message):
    code = main(["coverage", "--eps", "0.2", "--lambdas", lambdas, "--reps", "3",
                 "--seed", "5"])
    assert code == 1
    assert message in _strict_json(capsys.readouterr().out)["error"]


def test_clt(capsys):
    code, doc = run_cli(capsys, "clt", "--eps", "0.1",
                        "--lambdas", "10,30,90", "--reps", "120", "--seed", "6")
    assert code == 0
    assert len(doc["points"]) == 3
    assert all(p["d_w"] > 0 for p in doc["points"])


def test_j_oracle_example(tmp_path, capsys):
    ppath = tmp_path / "pattern.json"
    ppath.write_text(json.dumps(
        {"sizes": [2, 2], "shared": [{"simplices": [0, 1], "count": 1}]}))
    code, doc = run_cli(capsys, "j-oracle", "--pattern", str(ppath),
                        "--eps", "0.05", "--samples", "200000", "--seed", "2")
    assert code == 0
    assert doc["M"] == 3
    # closed form: (1+1+1+2*1*1/2) * (2 eps)^2 = 0.04
    assert doc["value"] == pytest.approx(0.04, abs=5 * doc["stderr"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["complex"])  # missing required --in/--eps
    assert exc.value.code == 2


def test_bad_input_file(capsys):
    code, doc = run_cli(capsys, "complex", "--in", "/nonexistent.json",
                        "--eps", "0.05")
    assert code == 1 and "error" in doc


def test_non_finite_point_file(tmp_path, capsys):
    # json reads NaN; a NaN coordinate used to pass the [0, a) check and
    # report a homology with no violation
    path = tmp_path / "nan.json"
    path.write_text('{"d": 1, "a": 1.0, "points": [[0.1], [NaN], [0.12]]}')
    code, doc = run_cli(capsys, "homology", "--in", str(path), "--eps", "0.05")
    assert code == 1 and "finite" in doc["error"]
