import json
import math

import pytest

from oracles import dropping_edge_collapse
from torushom import cliques, homology
from torushom.cli import main
from torushom.complexes import ComplexParams, Convention, adjacency_matrix
from torushom.moments import (ModelParams, cov_Nk_Nl, euclid_remark_moments,
                              fourth_moment_Nk, mean_Nk, mean_Nk_binomial,
                              mean_chi, mean_chi_binomial, third_moment_Nk,
                              var_chi_1d, var_chi_series)
from torushom.sampling import PointConfiguration, SeedSpec
from torushom.subcomplex import GammaGraph, count_gamma_adj
from torushom.tails import beta0_tail_bound, chi2d_tail_bound
from torushom.torus import TorusSpec

SPEC1 = TorusSpec(d=1, a=1.0)
SPEC2 = TorusSpec(d=2, a=1.0)
P1 = ModelParams(lam=30.0, spec=SPEC1, epsilon=0.05)
P2 = ModelParams(lam=1000.0, spec=SPEC2, epsilon=0.05)
SEED = SeedSpec(master_seed=1, stream_index=0)


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


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_seed_outside_64_bits_exits_with_one_error_line(capsys, seed):
    # reduced mod 2^64, the first would print the points of --seed 0
    code = main(["sample", "--lambda", "10", "--seed", seed])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "must be in [0, 2**64)" in json.loads(lines[0])["error"]


def test_sample_deterministic(capsys):
    code1, doc1 = run_cli(capsys, "sample", "--lambda", "20", "--seed", "9")
    code2, doc2 = run_cli(capsys, "sample", "--lambda", "20", "--seed", "9")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_complex_and_homology(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    code, doc = run_cli(capsys, "complex", "--in", str(path), "--eps", "0.05")
    assert code == 0
    assert set(doc) == {"N"}
    assert doc["N"][0] == len(json.loads(path.read_text())["points"])
    code, hdoc = run_cli(capsys, "homology", "--in", str(path),
                         "--eps", "0.05")
    assert code == 0
    assert hdoc["violations"] == []
    assert hdoc["chi_counts"] == hdoc["chi_betti"]
    # chi from counts agrees with the complex subcommand
    chi = sum((-1) ** i * n for i, n in enumerate(doc["N"]))
    assert hdoc["chi_counts"] == chi


def test_complex_has_no_cap_option(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    with pytest.raises(SystemExit) as exc:
        main(["complex", "--in", str(path), "--eps", "0.05", "--cap", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_complex_reports_a_cap_overrun(tmp_path, capsys, monkeypatch):
    # past the cap: one error line, no partial counts
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 5)
    code = main(["complex", "--in", str(path), "--eps", "0.05"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "more than DEFAULT_SIMPLEX_CAP = 5 cliques of at most "
                 f"{len(json.loads(path.read_text())['points'])} vertices"}


@pytest.mark.parametrize("command", ["complex", "homology", "subcount"])
def test_file_commands_take_no_torus_options(tmp_path, capsys, command):
    # d and a come from the point file
    path = write_points(tmp_path, capsys)
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    extra = ["--gamma", str(gamma)] if command == "subcount" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--in", str(path), "--eps", "0.05", *extra, "--d", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_complex_rejects_negative_max_dim(tmp_path, capsys):
    path = write_points(tmp_path, capsys, lam=30.0, seed=4)
    code, doc = run_cli(capsys, "complex", "--in", str(path), "--eps", "0.05",
                        "--max-dim", "-5")
    assert code == 1
    assert "max_dim" in doc["error"]


def test_experiment_has_no_max_dim_option(capsys):
    # it only chose which replications a cap dropped, and none is dropped
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--lambda", "10", "--eps", "0.05", "--reps", "2",
              "--seed", "1", "--quantities", "N_2", "--max-dim", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ("--quantity", "mean_Nk_binomial", "--eps", "-0.1", "--n", "10", "--k", "2"),
    ("--quantity", "mean_chi_binomial", "--eps", "0.4", "--n", "10")])
def test_binomial_moments_reject_epsilon_out_of_range(capsys, argv):
    code, doc = run_cli(capsys, "moment", *argv)
    assert code == 1 and "epsilon" in doc["error"]


def test_moment_third_requires_seed(capsys):
    code, doc = run_cli(capsys, "moment", "--quantity", "third_moment",
                        "--lambda", "20", "--eps", "0.05", "--k", "1")
    assert code == 1 and "seed" in doc["error"]


def test_moment_third_rejects_zero_oracle_samples(capsys):
    # the third moment of N_2 samples no component, yet the count is checked
    code, doc = run_cli(capsys, "moment", "--quantity", "third_moment",
                        "--lambda", "20", "--eps", "0.05", "--k", "2",
                        "--oracle-samples", "0", "--seed", "1")
    assert code == 1 and "oracle_samples" in doc["error"]


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


def test_tail_beta0_on_a_longer_circle(capsys):
    # a = 4: u = 50 - 40 = 10 and v = (2^1 - 1)^2 * 10 * 4 = 40, so the bound
    # is exp(-5 log(5/4)) = 0.8^5, that of a = 1 at the same mean point count
    code, doc = run_cli(capsys, "tail", "--quantity", "beta0", "--d", "1",
                        "--a", "4", "--lambda", "10", "--eps", "0.001",
                        "--y", "50")
    assert code == 0
    assert doc["bound"] == pytest.approx(0.8 ** 5, abs=1e-12)


MOMENT = ("moment", "--lambda", "30", "--eps", "0.05", "--quantity")
MOMENT_LARGE = ("moment", "--lambda", "1000", "--eps", "0.05", "--quantity")


def _chi2d_expected():
    var_chi = var_chi_series(P2).value
    return {"var_chi": var_chi, "bound": chi2d_tail_bound(var_chi, 5.0)}


@pytest.mark.parametrize("argv, expected", [
    pytest.param(MOMENT + ("mean_Nk", "--k", "3"),
                 lambda: {"value": mean_Nk(P1, 3).value}, id="mean_Nk"),
    pytest.param(MOMENT + ("mean_Nk_binomial", "--n", "20", "--k", "2"),
                 lambda: {"value": mean_Nk_binomial(SPEC1, 0.05, 20, 2).value},
                 id="mean_Nk_binomial"),
    pytest.param(MOMENT + ("mean_chi",),
                 lambda: {"value": mean_chi(P1).value}, id="mean_chi"),
    pytest.param(MOMENT + ("mean_chi_binomial", "--n", "20"),
                 lambda: {"value": mean_chi_binomial(SPEC1, 0.05, 20).value},
                 id="mean_chi_binomial"),
    pytest.param(MOMENT + ("cov_Nk_Nl", "--k", "3", "--l", "2"),
                 lambda: {"value": cov_Nk_Nl(P1, 3, 2).value}, id="cov_Nk_Nl"),
    pytest.param(MOMENT + ("var_chi_series",),
                 lambda: {"value": var_chi_series(P1).value,
                          "truncation": var_chi_series(P1).truncation},
                 id="var_chi_series"),
    pytest.param(MOMENT + ("var_chi_1d",),
                 lambda: {"value": var_chi_1d(P1).value}, id="var_chi_1d"),
    pytest.param(MOMENT + ("third_moment", "--k", "2", "--seed", "1"),
                 lambda: {"value": third_moment_Nk(P1, 2, seed=SEED).value},
                 id="third_moment"),
    pytest.param(MOMENT + ("fourth_moment", "--k", "2", "--seed", "1",
                           "--oracle-samples", "2000"),
                 lambda: {"value": fourth_moment_Nk(
                     P1, 2, oracle_samples=2000, seed=SEED).value},
                 id="fourth_moment"),
    pytest.param(("moment", "--quantity", "euclid_remark", "--d", "2",
                  "--lambda", "20", "--eps", "0.05"),
                 lambda: euclid_remark_moments(SPEC2, 20.0, 0.05),
                 id="euclid_remark"),
    pytest.param(("tail", "--quantity", "beta0", "--lambda", "30",
                  "--eps", "0.05", "--y", "40"),
                 lambda: {"bound": beta0_tail_bound(P1, 40.0)}, id="beta0"),
    pytest.param(("tail", "--quantity", "chi2d", "--lambda", "1000",
                  "--eps", "0.05", "--x", "5"), _chi2d_expected, id="chi2d"),
])
def test_every_moment_and_tail_quantity(capsys, argv, expected):
    # each prints one JSON document holding the library's value
    code = main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 1
    doc = json.loads(lines[0])
    want = expected()
    assert {key: doc[key] for key in want} == want


def test_tail_chi2d_rejects_other_dimensions(capsys):
    argv = ("tail", "--quantity", "chi2d", "--lambda", "1000", "--eps", "0.05",
            "--x", "5")
    code, doc = run_cli(capsys, *argv, "--d", "3")
    assert code == 1 and "2-torus" in doc["error"]
    code, doc = run_cli(capsys, *argv, "--d", "2")
    assert code == 0 and doc["var_chi"] == var_chi_series(P2).value


def test_moment_var_chi_series_reports_no_convergence(capsys):
    # x = 100: the series does not converge within its term budget
    code, doc = run_cli(capsys, "moment", "--quantity", "var_chi_series",
                        "--lambda", "1000", "--eps", "0.05")
    assert code == 1 and "not converged" in doc["error"]


def test_moment_has_no_term_count_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--quantity", "var_chi_series", "--lambda", "30",
              "--eps", "0.05", "--n-terms", "60"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, reference", [
    (MOMENT_LARGE + ("mean_Nk", "--k", "200"), 2.5359539069622313e28),
    (MOMENT_LARGE + ("mean_Nk_binomial", "--n", "2000", "--k", "300"),
     1.0841414987809494e69),
    (MOMENT_LARGE + ("cov_Nk_Nl", "--k", "200", "--l", "200"),
     8.9168098649918700e130),
], ids=("mean_Nk", "mean_Nk_binomial", "cov_Nk_Nl"))
def test_moment_large_means(capsys, argv, reference):
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["value"] == pytest.approx(reference, rel=1e-12)


def test_moment_overflow_is_a_domain_error(capsys):
    # E[N_600] of 2000 points at eps = 0.24 is about 1e340, beyond a float:
    # one error line, no traceback
    code = main(["moment", "--quantity", "mean_Nk_binomial", "--eps", "0.24",
                 "--n", "2000", "--k", "600"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_moment_overflow_inside_the_cech_domain_is_a_domain_error(capsys):
    # E[N_900] of 4000 points at eps = 0.15 (t <= a/3) is about 1e450
    code = main(["moment", "--quantity", "mean_Nk_binomial", "--eps", "0.15",
                 "--n", "4000", "--k", "900"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "error" in json.loads(lines[0])


@pytest.mark.parametrize("quantity", ("mean_Nk", "mean_chi", "cov_Nk_Nl",
                                      "var_chi_series", "var_chi_1d"))
def test_moment_rejects_cech_forms_beyond_a_third(capsys, quantity):
    # at eps = 0.2, t = 0.4 > a/3: E[N_3] would print 80.0, a Cech value,
    # where the Rips complex's mean is about 88.6
    code = main(["moment", "--quantity", quantity, "--d", "1", "--lambda", "10",
                 "--eps", "0.2", "--k", "3", "--l", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "a/3" in json.loads(lines[0])["error"]


def test_third_moment_of_n3_rejects_cech_components_beyond_a_third(capsys):
    # with its seed, so that the guard, not the missing seed, ends the run
    code = main(["moment", "--quantity", "third_moment", "--d", "1",
                 "--lambda", "20", "--eps", "0.2", "--k", "3", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "Cech closed form" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("eps", ("-0.1", "0.25", "nan"))
def test_euclid_remark_rejects_epsilon_out_of_range(capsys, eps):
    code, doc = run_cli(capsys, "moment", "--quantity", "euclid_remark",
                        "--d", "2", "--lambda", "20", "--eps", eps)
    assert code == 1 and "epsilon" in doc["error"]


@pytest.mark.parametrize("n, edges, c_gamma", [
    (2, [[0, 1]], 2),                  # stars, counted from the degrees
    (3, [[0, 1], [1, 2]], 2),
    (3, [[0, 1], [1, 2], [0, 2]], 6),  # searched for in the bitsets
])
def test_subcount(tmp_path, capsys, n, edges, c_gamma):
    path = write_points(tmp_path, capsys, lam=25.0, seed=8, d=2)
    gpath = tmp_path / "gamma.json"
    gpath.write_text(json.dumps({"n": n, "edges": edges}))
    code, doc = run_cli(capsys, "subcount", "--in", str(path),
                        "--gamma", str(gpath), "--eps", "0.2")
    assert code == 0
    assert doc["c_gamma"] == c_gamma
    # the same count through the dense adjacency matrix
    pc = PointConfiguration.from_json(json.loads(path.read_text()))
    params = ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS)
    assert doc["g_gamma"] == count_gamma_adj(
        adjacency_matrix(pc, params), GammaGraph.make(n, edges)).g_gamma > 0


def test_experiment(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    code, doc = run_cli(capsys, "experiment", "--lambda", "20",
                        "--eps", "0.05", "--reps", "40", "--seed", "3",
                        "--quantities", "n_points,N_2,beta_0",
                        "--raw-csv", str(raw))
    assert code == 0
    assert set(doc) == {"replications", "estimates"}
    est = doc["estimates"]["n_points"]
    assert abs(est["mean"] - 20.0) < 5 * est["stderr"]
    lines = raw.read_text().splitlines()
    assert lines[0] == "rep,quantity,value"
    assert len(lines) == 1 + 3 * 40
    n_points = [float(line.split(",")[2]) for line in lines[1:]
                if line.split(",")[1] == "n_points"]
    assert sum(n_points) / len(n_points) == pytest.approx(est["mean"])


def test_experiment_reports_a_cap_overrun(monkeypatch, capsys):
    # the clique walk to N_3 passes a cap of 1500 in some replication
    monkeypatch.setattr(cliques, "DEFAULT_SIMPLEX_CAP", 1500)
    code = main(["experiment", "--lambda", "60", "--eps", "0.05", "--reps", "60",
                 "--seed", "109", "--quantities", "N_1,N_2,N_3,chi"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("replication ")


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


@pytest.mark.parametrize("quantities", ["N_1,N_1", ","], ids=("repeated", "none"))
def test_experiment_rejects_repeated_or_missing_quantities(tmp_path, capsys, quantities):
    raw = tmp_path / "raw.csv"
    code = main(["experiment", "--lambda", "20", "--eps", "0.05", "--reps", "5",
                 "--seed", "1", "--quantities", quantities, "--raw-csv", str(raw)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "distinct" in json.loads(lines[0])["error"]
    assert not raw.exists()


def test_experiment_output_is_strict_json(capsys):
    # one replication has no standard error: null, not NaN
    code = main(["experiment", "--lambda", "20", "--eps", "0.05",
                 "--reps", "1", "--seed", "3", "--quantities", "N_2"])
    assert code == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["estimates"]["N_2"]["stderr"] is None
    assert doc["estimates"]["N_2"]["variance"] is None


def test_coverage_reports_a_homology_violation_as_an_error(capsys, monkeypatch):
    # under the Euclidean metric the circle's graphs are the max-norm's, but
    # no window holds, so their Betti numbers come from the collapse
    monkeypatch.setattr(homology, "_collapse_edges",
                        dropping_edge_collapse(homology._collapse_edges))
    code, doc = run_cli(capsys, "coverage", "--eps", "0.2", "--lambdas", "60",
                        "--reps", "3", "--seed", "4", "--metric", "euclidean")
    assert code == 1
    assert doc["error"].startswith("homology check failed at lambda=60.0")


def test_coverage_rejects_zero_replications(capsys):
    code = main(["coverage", "--eps", "0.2", "--lambdas", "60", "--reps", "0",
                 "--seed", "5"])
    assert code == 1
    assert "reps" in _strict_json(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("lambdas, message", [
    ("", "at least one intensity"), ("30,-5", "intensity must be positive"),
    ("10,10", "intensity 10.0 is repeated")])
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


def test_j_oracle_rejects_a_negative_epsilon(tmp_path, capsys):
    ppath = tmp_path / "pattern.json"
    ppath.write_text(json.dumps({"sizes": [2]}))
    code, doc = run_cli(capsys, "j-oracle", "--pattern", str(ppath),
                        "--eps", "-0.1", "--seed", "2")
    assert code == 1 and "epsilon" in doc["error"]


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


@pytest.mark.parametrize("argv", [
    ("tail", "--quantity", "beta0", "--lambda", "20", "--y", "nan"),
    ("tail", "--quantity", "chi2d", "--lambda", "1000", "--x", "nan"),
    ("tail", "--quantity", "chi2d", "--var-chi", "nan", "--x", "5"),
    ("moment", "--quantity", "mean_Nk", "--lambda", "20", "--eps", "0.05",
     "--k", "2", "--a", "inf"),
], ids=("beta0-y", "chi2d-x", "chi2d-var-chi", "moment-a"))
def test_non_finite_inputs_are_domain_errors(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1 and "error" in doc


@pytest.mark.parametrize("role, text", [
    *(pytest.param(role, "[1, 2]", id=role) for role in (
        "complex", "homology", "subcount-in", "subcount-gamma", "j-oracle")),
    ("complex", '{"d": 1, "a": "1", "points": []}'),
    ("complex", '{"d": 1, "a": 1.0, "points": {"x": 1}}'),
    ("homology", '{"d": 1.5, "a": 1.0, "points": [[0.5]]}'),
    ("homology", '{"d": 1, "a": 1.0, "points": [[0.1, 0.2]]}'),
    ("subcount-in", '{"d": 1, "a": 1.0, "points": [["0.5"]]}'),
    ("subcount-gamma", '{"n": 2, "edges": [[0, "1"]]}'),
    ("subcount-gamma", '{"n": [2], "edges": []}'),
    ("j-oracle", '{"sizes": [2, 2], "shared": [1]}'),
    ("j-oracle", '{"sizes": [2, 2], "shared": [{"simplices": 5, "count": 1}]}'),
    ("j-oracle", '{"sizes": [2, 2], "shared": [{"simplices": [0, 1], "count": 1},'
                 ' {"simplices": [0, 1], "count": 1}]}'),
    ("j-oracle", '{"sizes": [2, 2], "shared": [{"simplices": [0, 1], "count": 1},'
                 ' {"simplices": [1, 0], "count": 1}]}'),
    ("j-oracle", '{"sizes": [3, 3, 3],'
                 ' "shared": [{"simplices": [0, 0, 1], "count": 1}]}'),
    ("j-oracle", '{"sizes": []}'),
])
def test_malformed_documents_are_domain_errors(tmp_path, capsys, role, text):
    # a JSON document that is not an object, or an object whose fields have
    # the wrong types: one error line, no traceback
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    points = write_points(tmp_path, capsys)
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    argv = {
        "complex": ["complex", "--in", bad, "--eps", "0.05"],
        "homology": ["homology", "--in", bad, "--eps", "0.05"],
        "subcount-in": ["subcount", "--in", bad, "--gamma", gamma, "--eps", "0.05"],
        "subcount-gamma": ["subcount", "--in", points, "--gamma", bad,
                           "--eps", "0.05"],
        "j-oracle": ["j-oracle", "--pattern", bad, "--eps", "0.05",
                     "--samples", "100", "--seed", "1"],
    }[role]
    code = main([str(a) for a in argv])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "JSON object" in json.loads(lines[0])["error"]
