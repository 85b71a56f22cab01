"""Command-line interface: outputs, exit codes, round trips."""

import csv
import dataclasses
import json

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

import mteq
from mteq import _blas
from mteq import (ConvDiffSpec, InnerSolveConfig, MultitermEquation, PreconditionerSpec,
                  SolverConfig, TruncationConfig, build_convdiff, save_manifest)
from mteq.cli import _build_config, build_parser, main

from conftest import (overflowing_beta_convdiff, overflowing_convdiff,
                      overflowing_kron_convdiff, overflowing_rhs_convdiff, poison_preconditioner,
                      poison_step, scaled_rhs_convdiff, vanish_first_steps)


def solve_argv(tmp_path, extra=()):
    # --adi-iters goes only with the ADI preconditioner, unless extra names another.
    kind = extra[extra.index("--precond") + 1] if "--precond" in extra else "two-term-adi"
    adi_iters = ["--adi-iters", "4"] if kind == "two-term-adi" else []
    return [
        "solve", "--problem", "convdiff", "--n", "34", "--eps", "0.1",
        "--method", "ss-gcr1", "--maxrank", "20", "--tol", "1e-8",
        "--toltrank", "1e-12", "--precond", "two-term-adi", *adi_iters,
        "--seed", "7", "--out-dir", str(tmp_path), *extra,
    ]


def run_solve(tmp_path, extra=()):
    return main(solve_argv(tmp_path, extra))


def config_from_report(config: dict) -> SolverConfig:
    """The nested dataclasses of a report's ``config``."""
    return SolverConfig(**config | {
        "truncation": TruncationConfig(**config["truncation"]),
        "inner": InnerSolveConfig(**config["inner"]),
        "preconditioner": PreconditionerSpec(**config["preconditioner"]),
    })


def test_solve_writes_report_and_history(tmp_path):
    assert run_solve(tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["status"] == "converged"
    assert report["versions"] == {"mteq": mteq.__version__, "numpy": np.__version__,
                                  "scipy": scipy.__version__}
    assert report["config"]["truncation"]["maxrank"] == 20
    assert report["problem"] == {"problem": "convdiff", "n": 34, "eps": 0.1}
    # Both dimensions (32) are below s = 2 (p maxrank + q): nothing is sketched.
    assert report["result"]["sketch_mode"] == "exact"
    assert report["result"]["sketch_dim"] == 2 * (4 * 20 + 2)
    assert report["result"]["sketch_n_fft"] == [None, None]
    with open(tmp_path / "history.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["k", "residual_estimate", "rank_x", "rank_r", "rank_p"]
    assert len(rows) - 1 == report["result"]["iterations"] + 1


@pytest.mark.parametrize(("extra", "preconditioner"), [
    pytest.param([], {"kind": "two_term_adi", "indices": [0, 1], "t_adi": 4,
                      "shift_source": "analytic_laplacian"}, id="extra0"),
    # A run with no ADI records no ADI settings.
    pytest.param(["--precond", "one-term", "--precond-terms", "2",
                  "--inner-precond-terms", "none", "--maxit", "3"],
                 {"kind": "one_term", "indices": [1], "t_adi": None, "shift_source": None},
                 id="extra1"),
])
def test_report_config_rebuilds_the_solve_config(tmp_path, extra, preconditioner):
    argv = solve_argv(tmp_path, extra)
    assert main(argv) in (0, 3)
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert list(config) == [f.name for f in dataclasses.fields(SolverConfig)]
    assert config["preconditioner"] == preconditioner
    assert config_from_report(config) == _build_config(build_parser().parse_args(argv), 4)


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--no-such-flag"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_nonconvergence_exits_3_but_writes_report(tmp_path):
    code = main([
        "solve", "--problem", "convdiff", "--n", "34", "--eps", "0.01",
        "--maxit", "1", "--maxrank", "4", "--tol", "1e-12",
        "--precond", "none", "--out-dir", str(tmp_path),
    ])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["status"] == "maxit_reached"


def test_stagnated_solve_exits_3_but_writes_report(tmp_path, monkeypatch):
    vanish_first_steps(monkeypatch, 2)
    with pytest.warns(RuntimeWarning) as caught:
        code = run_solve(tmp_path)
    assert any("vanished twice" in str(w.message) for w in caught)
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["status"] == "stagnated"
    assert report["result"]["iterations"] == 0


def test_breakdown_exits_3_but_writes_report(tmp_path, monkeypatch):
    poison_step(monkeypatch, 2)
    with pytest.warns(RuntimeWarning, match="beta is not finite"):
        code = run_solve(tmp_path)
    assert code == 3
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["status"] == "breakdown"
    assert result["iterations"] == 1
    assert np.isfinite(result["true_final_residual"])


def test_overflowing_projected_system_exits_3_but_writes_report(tmp_path):
    # This exited 2 with scipy's "array must not contain infs or NaNs".
    manifest = save_manifest(overflowing_convdiff(), tmp_path / "eq")
    with pytest.warns(RuntimeWarning, match="projected Gram table is not finite"):
        code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path)])
    assert code == 3
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["status"] == "breakdown"
    assert result["iterations"] == 0
    assert result["true_final_residual"] == pytest.approx(1.0)
    assert (tmp_path / "history.csv").exists()


@pytest.mark.parametrize(("build", "message", "iterations"), [
    (overflowing_kron_convdiff, "assembled projected system is not finite", 0),
    (overflowing_beta_convdiff, "step coefficient beta is not finite", 1),
], ids=["kronecker-sum", "beta-rhs"])
def test_overflowing_projected_solve_exits_3_but_writes_report(tmp_path, build, message,
                                                               iterations):
    # Both exited 2 with scipy's "array must not contain infs or NaNs".
    manifest = save_manifest(build(), tmp_path / "eq")
    with pytest.warns(RuntimeWarning, match=message):
        code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path)])
    assert code == 3
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert (result["status"], result["iterations"]) == ("breakdown", iterations)
    assert np.isfinite(result["true_final_residual"])


def test_non_finite_preconditioner_output_exits_3_but_writes_report(tmp_path, monkeypatch):
    # This exited 2 with scipy's "array must not contain infs or NaNs".
    poison_preconditioner(monkeypatch, 2)
    with pytest.warns(RuntimeWarning, match="preconditioned residual is not finite"):
        code = run_solve(tmp_path)
    assert code == 3
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["status"] == "breakdown"
    assert result["iterations"] == 1
    assert np.isfinite(result["true_final_residual"])
    assert (tmp_path / "history.csv").exists()


def test_too_stiff_adi_hull_exits_2(tmp_path, capsys):
    # Once its interval no longer overflows, the overflow manifest's ADI hull
    # spans about 4.7e162: every shift was NaN and the solve died in the
    # truncation with scipy's "array must not contain infs or NaNs".
    manifest = save_manifest(overflowing_convdiff(), tmp_path / "eq")
    with pytest.warns(RuntimeWarning, match="companion"):  # A_2 is 1e160 I
        code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                     "--precond", "two-term-adi", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ADI shifts on the spectral hull [0.2" in err
    assert "are not finite" in err


@pytest.mark.parametrize("pair", ["0,1", "9,9"])
def test_inner_precond_terms_out_of_range_exits_2(tmp_path, capsys, pair):
    code = run_solve(tmp_path, extra=["--inner-precond-terms", pair])
    assert code == 2
    assert f"--inner-precond-terms {pair}: term indices run from 1 to 4" \
        in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "1"])
def test_tol_outside_the_unit_interval_exits_2(tmp_path, capsys, value):
    # nan ran to maxit in silence; inf reported convergence after 0 iterations.
    code = run_solve(tmp_path, extra=["--tol", value])
    assert code == 2
    assert "tol must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("extra", [
    ["--precond-terms", "0,1"],
    ["--precond-terms", "2,5"],
    ["--precond", "one-term", "--precond-terms", "0"],
    ["--precond", "one-term", "--precond-terms", "5"],
])
def test_precond_term_flags_out_of_range_exit_2(tmp_path, capsys, extra):
    code = run_solve(tmp_path, extra=extra)
    assert code == 2
    flag, value = extra[-2:]
    assert f"{flag} {value}: term indices run from 1 to 4" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(("extra", "message"), [
    (["--precond", "one-term", "--precond-terms", "1,2"],
     "--precond-terms 1,2: --precond one-term takes 1 term index"),
    (["--precond-terms", "2"], "--precond-terms 2: --precond two-term-adi takes 2 term indices"),
    (["--precond", "none", "--precond-terms", "1"],
     "--precond-terms 1: --precond none takes 0 term indices"),
], ids=["one_term_pair", "two_term_adi_single", "none_single"])
def test_precond_terms_of_the_wrong_count_exit_2(tmp_path, capsys, extra, message):
    # Each flag of the two that set these indices was ignored under the
    # other preconditioner kind.
    code = run_solve(tmp_path, extra=extra)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_precond_terms_that_are_not_integers_exit_2(tmp_path, capsys):
    code = run_solve(tmp_path, extra=["--precond-terms", "1,x"])
    assert code == 2
    assert "--precond-terms expects comma-separated integers, got '1,x'" \
        in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(("extra", "message"), [
    (["--precond", "one-term", "--adi-iters", "3"],
     "--adi-iters 3: --precond one-term runs no ADI; only --precond two-term-adi takes it"),
    (["--precond", "none", "--shift-source", "estimated"],
     "--shift-source estimated: --precond none runs no ADI; only --precond two-term-adi takes it"),
], ids=["one_term_adi_iters", "none_shift_source"])
def test_adi_flags_without_adi_exit_2(tmp_path, capsys, extra, message):
    # Both flags were ignored in silence under a kind that runs no ADI.
    code = run_solve(tmp_path, extra=extra)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(("flag", "value", "message"), [
    ("--eps", "nan", "eps (the diffusion coefficient) must lie in (0, inf), got nan"),
    ("--eps", "inf", "eps (the diffusion coefficient) must lie in (0, inf), got inf"),
    ("--seed", "-1", "sketch_seed must be a non-negative integer, got -1"),
], ids=["eps_nan", "eps_inf", "seed_negative"])
def test_out_of_range_problem_and_seed_flags_exit_2(tmp_path, capsys, flag, value, message):
    # nan and inf exited 2 naming "A_1 has non-finite entries"; seed -1 ran
    # at this size, which draws no random numbers, and recorded the seed.
    code = run_solve(tmp_path, extra=[flag, value])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_huge_right_hand_side_converges(tmp_path):
    # ||C D^T|| is about 1e158: the Gram-trace norm of the right-hand side
    # overflowed, and this exited 2 on a non-finite initial estimate.
    manifest = save_manifest(scaled_rhs_convdiff(2.0**260), tmp_path / "eq")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["status"] == "converged"
    assert result["true_final_residual"] <= 1e-6


def test_overflowing_right_hand_side_exits_2(tmp_path, capsys):
    # This exited 2 with scipy's "array must not contain infs or NaNs".
    manifest = save_manifest(overflowing_rhs_convdiff(), tmp_path / "eq")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "the residual estimate of the initial guess is not finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_verify_round_trip(tmp_path):
    sol = tmp_path / "solution.npz"
    assert run_solve(tmp_path, extra=["--save-solution", str(sol)]) == 0
    code = main([
        "verify", "--problem", "convdiff", "--n", "34", "--eps", "0.1",
        "--solution", str(sol),
    ])
    assert code == 0


@pytest.mark.parametrize("name, arrays, missing", [
    ("partial.npz", {"left": np.ones((32, 1)), "right": np.ones((32, 1))}, "core"),
    ("single.npy", None, "left, core, right"),
])
def test_verify_names_a_missing_solution_array(tmp_path, capsys, name, arrays, missing):
    sol = tmp_path / name
    if arrays is None:
        np.save(sol, np.ones((32, 1)))
    else:
        np.savez(sol, **arrays)
    code = main(["verify", "--problem", "convdiff", "--n", "34", "--solution", str(sol)])
    assert code == 2
    assert f"has no array {missing};" in capsys.readouterr().err


def test_manifest_problem_source(tmp_path):
    eq = build_convdiff(ConvDiffSpec(n=20, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    code = main([
        "solve", "--problem", "manifest", "--manifest", str(manifest),
        "--maxrank", "18", "--tol", "1e-8", "--precond", "two-term-adi",
        "--adi-iters", "4", "--shift-source", "analytic-laplacian",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0


def test_manifest_of_the_wrong_shape_is_a_configuration_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_records_blas_threads_of_the_solve(tmp_path):
    entry = _blas.describe()
    assert run_solve(tmp_path) == 0
    blas = json.loads((tmp_path / "report.json").read_text())["blas"]
    assert blas.keys() == {"numpy", "scipy"}
    for name, runtime in _blas.RUNTIMES.items():
        if runtime is None:
            assert blas[name] is None
        else:
            assert blas[name]["library"] == runtime.path.name
    if _blas._numpy_pool() is not None:
        assert blas["numpy"]["threads"] == 1
        assert blas["scipy"]["threads"] == entry["scipy"]["threads"]
    assert _blas.describe() == entry


def test_manifest_with_non_finite_coefficient_exits_2(tmp_path, capsys):
    eq = build_convdiff(ConvDiffSpec(n=20, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    a_2 = manifest.parent / "A_2.mtx"
    lines = a_2.read_text().splitlines()
    lines[-1] = " ".join([*lines[-1].split()[:-1], "inf"])
    a_2.write_text("\n".join(lines) + "\n")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "A_2 has non-finite entries" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_manifest_with_singular_preconditioner_coefficient_exits_2(tmp_path, capsys):
    n = 12
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    singular = sp.diags(np.r_[np.ones(n - 1), 0.0], format="csr")
    rng = np.random.default_rng(0)
    eq = MultitermEquation(terms=[(lap, eye), (eye, lap), (singular, eye)],
                           C=rng.standard_normal((n, 1)), D=rng.standard_normal((n, 1)))
    manifest = save_manifest(eq, tmp_path / "eq")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--precond", "one-term", "--precond-terms", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "A_3 is singular" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_analytic_shifts_of_a_non_laplacian_coefficient_exit_2(tmp_path, capsys):
    n = 12
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    graded = sp.diags(np.arange(1.0, n + 1), format="csr")
    rng = np.random.default_rng(0)
    eq = MultitermEquation(terms=[(graded, eye), (eye, lap)],
                           C=rng.standard_normal((n, 1)), D=rng.standard_normal((n, 1)))
    manifest = save_manifest(eq, tmp_path / "eq")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--precond", "two-term-adi", "--shift-source", "analytic-laplacian",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "A_1 is not a positive multiple of tridiag(-1, 2, -1)" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("n, shift, negative", [(40, 300.0, 5), (200, 125.0, 3)],
                         ids=["n40", "n200"])
def test_estimated_shifts_of_an_indefinite_coefficient_exit_2(tmp_path, capsys, n, shift,
                                                              negative):
    # A_1 has the spectrum [-290.6, 6090.6] at n = 40 and [-115, 1.6e5] at
    # n = 200; ADI ran to maxit in silence on the first, power iterations
    # accepted the second as (29.1, 1.61e5).
    lap = n**2 * sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    eq = MultitermEquation(terms=[(lap - shift * eye, eye), (eye, lap)],
                           C=np.ones((n, 1)), D=np.ones((n, 1)))
    manifest = save_manifest(eq, tmp_path / "eq")
    code = main(["solve", "--problem", "manifest", "--manifest", str(manifest),
                 "--precond", "two-term-adi", "--shift-source", "estimated",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert (f"symmetric part of A_1 is indefinite ({negative} negative and "
            f"{n - negative} positive pivots)") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_manifest_source_requires_path(tmp_path, capsys):
    code = main(["solve", "--problem", "manifest", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_benchmark_invocation_at_full_size(tmp_path):
    code = main([
        "solve", "--problem", "convdiff", "--n", "1024", "--eps", "0.1",
        "--method", "ss-gcr1", "--maxrank", "50", "--tol", "1e-6",
        "--toltrank", "1e-10", "--precond", "two-term-adi",
        "--adi-iters", "8", "--seed", "7", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["iterations"] <= 8
    assert report["result"]["true_final_residual"] <= 1e-6
    assert report["result"]["sketch_mode"] == "two_sided"
    # s = 2 (p maxrank + q); both 1022-point sides are padded to 1024.
    assert report["result"]["sketch_dim"] == 2 * (4 * 50 + 2)
    assert report["result"]["sketch_n_fft"] == [1024, 1024]


def test_bench_quick_emits_all_columns(tmp_path, capsys):
    code = main(["bench", "--sizes", "66", "--seed", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for column in ("n", "eps", "method", "k", "rank", "pcg", "Res", "Time"):
        assert column in out.splitlines()[0]
    with open(tmp_path / "bench.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4  # 1 size x 2 eps x 2 methods
    assert all(float(row["res"]) <= 1e-6 for row in rows)


def test_bench_configures_each_grid_point_as_the_acceptance_benchmark(tmp_path, monkeypatch):
    configs = []
    solve = mteq.cli.solve
    monkeypatch.setattr(mteq.cli, "solve", lambda eq, cfg: configs.append(cfg) or solve(eq, cfg))
    assert main(["bench", "--sizes", "66", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    # The configuration the bench used to write out by hand.
    expected = [
        SolverConfig(
            method=method, tol=1e-6, maxit=50,
            truncation=TruncationConfig(toltrank=1e-10, maxrank=50 if eps >= 0.1 else 70),
            inner=InnerSolveConfig(inner_precond_terms=(0, 1)),
            sketch_seed=3,
            preconditioner=PreconditionerSpec.two_term_adi(
                indices=(0, 1), t_adi=8, shift_source="analytic_laplacian"),
        )
        for eps in (0.1, 0.01) for method in ("ss_gcr1", "ss_mr")
    ]
    assert [dataclasses.asdict(c) for c in configs] == \
        [dataclasses.asdict(c) for c in expected]
