import json
import warnings

import numpy as np
import pytest

from bracketflow import (
    classify_type,
    is_flat_bracket,
    jacobi_residual,
    catalog,
    save_bracket,
    soliton_residual,
)
from bracketflow.catalog import random_solvable_bracket
from bracketflow import brackets, experiments, flows
from bracketflow.cli import EXIT_VALIDATION, main
from bracketflow.errors import (
    BracketFlowError,
    GaugeMismatch,
    NotALieBracket,
    OutOfRange,
    ParamOutOfRange,
    SingularGauge,
    UnknownName,
)
from bracketflow.experiments import run_collapse_experiment, run_uniqueness_experiment
from bracketflow.brackets import is_solvable
from bracketflow.strata import GaugeCheck

from oracles import random_antisymmetric_bracket


class TestCatalog:
    def test_h3_entries(self):
        entry = catalog("h3")
        assert entry.bracket.coeffs[0, 1, 2] == 1.0
        assert entry.bracket.norm_sq == 2.0

    def test_s3_lambda_one(self):
        mu = catalog("s3_lambda", lam=1.0).bracket
        assert mu.coeffs[0, 1, 1] == 1.0 and mu.coeffs[0, 2, 2] == 1.0

    def test_e2_signs(self):
        mu = catalog("e2").bracket
        assert mu.coeffs[0, 1, 2] == -1.0 and mu.coeffs[0, 2, 1] == 1.0

    def test_all_entries_are_lie(self, catalog_three_dim):
        for entry in catalog_three_dim:
            assert jacobi_residual(entry.bracket) <= 1e-12

    def test_annotations_match_classifiers(self, catalog_three_dim):
        for entry in catalog_three_dim:
            report = classify_type(entry.bracket)
            assert report.kind.value == entry.expected["type"]
            assert is_flat_bracket(entry.bracket) == entry.expected["flat"]
            if entry.expected.get("soliton"):
                cert = soliton_residual(entry.bracket)
                assert cert.kind.value == entry.expected["soliton"]

    def test_heisenberg_and_abelian(self):
        heis = catalog("heisenberg", dim=7)
        assert heis.dim == 7 and jacobi_residual(heis.bracket) == 0.0
        ab = catalog("abelian", dim=4)
        assert ab.bracket.is_zero

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("sl2")

    def test_param_constraints(self):
        with pytest.raises(ParamOutOfRange):
            catalog("s3_lambda", lam=1.5)
        with pytest.raises(ParamOutOfRange):
            catalog("s3_lambda_prime", lam=-0.1)
        with pytest.raises(ParamOutOfRange):
            catalog("heisenberg", dim=4)
        with pytest.raises(ParamOutOfRange):
            catalog("s3_lambda")


class TestRandomSolvable:
    def test_generated_brackets_are_solvable_lie(self, rng):
        for dim in (3, 4, 5, 6):
            for _ in range(5):
                mu = random_solvable_bracket(rng, dim)
                assert jacobi_residual(mu) <= 1e-10 * (1.0 + mu.norm_sq)
                assert is_solvable(mu)

    def test_deterministic_per_seed(self):
        a = random_solvable_bracket(np.random.default_rng(5), 4)
        b = random_solvable_bracket(np.random.default_rng(5), 4)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestExperiments:
    def test_uniqueness_h3_trivial_agreement(self):
        report = run_uniqueness_experiment(catalog("h3"), seeds=3, t_end=30.0, seed=2)
        assert all(report.converged)
        assert report.max_fingerprint_distance <= 1e-8
        # limit certificates show the nilsoliton derivation ratios (1,1,2)
        cert = soliton_residual(catalog("h3").bracket)
        eigs = np.sort(np.linalg.eigvalsh(cert.D))
        np.testing.assert_allclose(eigs / eigs[0], [1.0, 1, 2], atol=1e-10)

    def test_uniqueness_exponential_family(self):
        report = run_uniqueness_experiment(
            catalog("s3_lambda", lam=0.5), seeds=5, t_end=80.0, seed=1
        )
        assert all(report.converged)
        assert report.max_fingerprint_distance <= 1e-4
        assert max(report.f_tails) <= 1e-8
        assert max(report.soliton_residuals) <= 1e-6

    def test_uniqueness_single_seed_trivially_consistent(self):
        report = run_uniqueness_experiment(catalog("h3"), seeds=1, t_end=20.0, seed=0)
        assert report.max_fingerprint_distance == 0.0

    def test_uniqueness_dimension_four(self):
        # Almost-abelian algebra with ad(e1) = diag(1,2,3): a solvsoliton with
        # a three-dimensional rotation gauge group and slowest contraction
        # rate 1/14, so the gauged seeds converge by t ~ 200.
        from bracketflow.catalog import CatalogEntry, almost_abelian

        mu = almost_abelian(np.diag([1.0, 2.0, 3.0]))
        cert = soliton_residual(mu)
        assert cert.kind.value == "NontrivialSoliton"
        assert cert.c == pytest.approx(-14.0, abs=1e-10)
        entry = CatalogEntry("almost_abelian(1,2,3)", 4, mu)
        report = run_uniqueness_experiment(entry, seeds=3, t_end=200.0, seed=4)
        assert all(report.converged)
        assert report.max_fingerprint_distance <= 1e-4
        assert max(report.soliton_residuals) <= 1e-5

    def test_uniqueness_gauge_off_parabolic_is_a_gauge_mismatch(self, monkeypatch, capsys):
        # An upper unitriangular gauge is not in Q_beta for s3's label and
        # moves the seed bracket off V>=0: integrate_stack's seed check raises.
        def off_parabolic(rng, dec):
            return np.eye(dec.dim) + 0.5 * np.triu(np.ones((dec.dim, dec.dim)), 1)

        monkeypatch.setattr(experiments, "random_parabolic_gauge", off_parabolic)
        with pytest.raises(GaugeMismatch, match="initial bracket is not gauged correctly: "
                                                "negative-component norm 1.620e"):
            run_uniqueness_experiment(catalog("s3"), seeds=1, t_end=1.0)
        code = main(["uniqueness", "--catalog", "s3", "--seeds", "1", "--t-end", "1"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: initial bracket is not gauged correctly")

    @staticmethod
    def _run_with_bad_seeds(monkeypatch, not_lie, off):
        """run_uniqueness_experiment on five s3_lambda(0.5) gauges, seed not_lie not a Lie
        bracket and seed off outside V>=0: the error it raises, the seeds made, the seeds
        checked for V>=0 and the field-kernel calls."""
        bad = random_antisymmetric_bracket(np.random.default_rng(1), 3)
        made, checks, stages = [], [], []
        act, check_gauged, field = experiments.act, flows.check_gauged, flows._field

        def acting(h, mu):
            made.append(bad if len(made) == not_lie else act(h, mu))
            return made[-1]

        def checking(mu, label):
            checks.append(mu)
            if mu is made[off]:
                return GaugeCheck(in_nonneg=False, v0_norm=1.0, neg_norm=0.5)
            return check_gauged(mu, label)

        def counting(*args, **kwargs):
            stages.append(args)
            return field(*args, **kwargs)

        monkeypatch.setattr(experiments, "act", acting)
        monkeypatch.setattr(flows, "check_gauged", checking)
        monkeypatch.setattr(flows, "_field", counting)
        with pytest.raises(BracketFlowError) as raised:
            run_uniqueness_experiment(catalog("s3_lambda", lam=0.5), seeds=5, t_end=1.0)
        return raised.value, made, checks, stages

    def test_uniqueness_raises_a_gauge_off_v_nonneg_before_any_flow(self, monkeypatch):
        # Seed 1 leaves V>=0 and seed 3 is not a Lie bracket.  All gauges are
        # drawn before any flow, and integrate_stack checks the seeds in order
        # before its first step: seed 1's error is raised and no stage is evaluated.
        error, made, checks, stages = self._run_with_bad_seeds(monkeypatch, not_lie=3, off=1)
        assert type(error) is GaugeMismatch
        assert str(error) == ("initial bracket is not gauged correctly: negative-component "
                              "norm 5.000e-01, V_0 norm 1.000e+00")
        assert len(made) == 5 and checks == made[:2] and stages == []

    def test_uniqueness_raises_the_first_bad_seed_before_any_flow(self, monkeypatch):
        # As above with the two bad seeds swapped: seed 1's Jacobi error wins.
        error, made, checks, stages = self._run_with_bad_seeds(monkeypatch, not_lie=1, off=3)
        assert type(error) is NotALieBracket
        assert str(error).startswith("Jacobi residual")
        assert len(made) == 5 and checks == made[:1] and stages == []

    def test_uniqueness_raises_a_singular_gauge_before_any_flow(self, monkeypatch):
        draws, flowed = [], []
        gauge = experiments.random_parabolic_gauge

        def drawing(rng, dec):
            draws.append(gauge(rng, dec))
            return np.zeros((dec.dim, dec.dim)) if len(draws) == 3 else draws[-1]

        monkeypatch.setattr(experiments, "random_parabolic_gauge", drawing)
        monkeypatch.setattr(experiments, "integrate_stack", lambda *args: flowed.append(args))
        with pytest.raises(SingularGauge, match=r"\|det h\| = 0.000e\+00 below tolerance"):
            run_uniqueness_experiment(catalog("s3_lambda", lam=0.5), seeds=5, t_end=1.0)
        assert len(draws) == 3
        assert flowed == []

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_uniqueness_needs_a_seed(self, seeds, capsys):
        with pytest.raises(OutOfRange, match=f"seeds = {seeds} must be at least 1"):
            run_uniqueness_experiment(catalog("h3"), seeds=seeds)
        code = main(["uniqueness", "--catalog", "h3", "--seeds", str(seeds)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: seeds = {seeds} must be at least 1")

    def test_collapse_window_must_not_be_empty(self, capsys):
        message = r"collapse window \[1, t_end\] = \[1, 0.5\] is empty"
        with pytest.raises(OutOfRange, match=message):
            run_collapse_experiment(catalog("h3"), t_end=0.5)
        assert main(["collapse", "--catalog", "h3", "--t-end", "0.5"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: collapse window [1, t_end] = [1, 0.5]")

    def test_collapse_verdicts(self):
        assert run_collapse_experiment(catalog("h3"), t_end=50.0).non_collapsed
        gauged = run_collapse_experiment(
            catalog("e2"), t_end=50.0, gauge=np.diag([1.0, 1.0, 1.5])
        )
        assert not gauged.non_collapsed
        assert gauged.ric_bound_final <= 1e-3
        assert not run_collapse_experiment(catalog("abelian", dim=3), t_end=5.0).non_collapsed


class TestCli:
    def test_catalog_and_classify(self, capsys):
        assert main(["catalog", "h3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 3
        assert main(["classify", "--catalog", "e2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["type"]["kind"] == "ImaginaryType" and data["flat"] is True

    def test_classify_runs_one_derived_series(self, monkeypatch, capsys):
        # classify_type's series decides solvability; flatness reads the pack's Ric.
        calls = []
        series = brackets._descending_series

        def counting_series(mu, central):
            calls.append(central)
            return series(mu, central)

        monkeypatch.setattr(brackets, "_descending_series", counting_series)
        assert main(["classify", "--catalog", "s3"]) == 0
        assert calls == [False]
        assert json.loads(capsys.readouterr().out)["flat"] is False

    def test_classify_from_file(self, tmp_path, capsys, rng):
        mu = random_solvable_bracket(rng, 3)
        path = tmp_path / "mu.json"
        save_bracket(path, mu)
        assert main(["classify", "--input", str(path)]) == 0
        json.loads(capsys.readouterr().out)

    def test_stratum(self, capsys):
        assert main(["stratum", "--catalog", "h3"]) == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(data["beta_eigenvalues"], [-1.0, -1, 1], atol=1e-7)

    def test_flow_csv_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["flow", "--catalog", "h3", "--variant", "raw", "--t-end", "2",
                "--record-every", "0.5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "t,||mu||,scal,scalstar,f,lyap,cs,typeIII,ricBound,jacobiRes"

    def test_flow_summary_counts_rejected_steps(self, tmp_path, capsys):
        args = ["flow", "--catalog", "h3", "--variant", "raw", "--t-end", "2",
                "--record-every", "0.5", "--out", str(tmp_path / "t.csv")]
        assert main(args) == 0
        assert capsys.readouterr().err == (
            "# termination=ReachedTEnd steps=12 rejected=0 samples=5\n")

    def test_flow_snapshots(self, tmp_path, capsys):
        snap = tmp_path / "snap.jsonl"
        out = tmp_path / "t.csv"
        assert main([
            "flow", "--catalog", "h3", "--variant", "scalstar", "--t-end", "1",
            "--record-every", "0.5", "--out", str(out), "--snapshots", str(snap),
        ]) == 0
        capsys.readouterr()
        lines = snap.read_text().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["t"] == 0.0 and first["bracket"]["dim"] == 3

    def test_flow_tolerances_are_validated(self, capsys):
        code = main(["flow", "--catalog", "s3", "--t-end", "1", "--rel-tol", "nan"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: rel_tol = nan must be")

    def test_soliton_check(self, capsys):
        assert main(["soliton-check", "--catalog", "s3_lambda", "--lam", "1.0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"]["kind"] == "Einstein"

    def test_linearize_and_validation_exit(self, capsys):
        assert main(["linearize", "--catalog", "s3_lambda", "--lam", "0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tangent_dim"] == 2
        assert data["P_fd_discrepancy"] <= 1e-12 and data["flow_fd_discrepancy"] <= 1e-12
        assert main(["linearize", "--catalog", "s3"]) == 2

    def test_compare(self, tmp_path, capsys, rng):
        from bracketflow import act
        from oracles import random_orthogonal

        mu = catalog("h3").bracket
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_bracket(a, mu)
        save_bracket(b, act(random_orthogonal(rng, 3), mu))
        assert main(["compare", str(a), str(b)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["consistent_with_same_orbit"] is True

    def test_unknown_catalog_exit_code(self, capsys):
        assert main(["classify", "--catalog", "nope"]) == 2

    @pytest.mark.parametrize("payload", [
        {"entries": []},
        {"dim": 3},
        [1, 2],
        {"dim": 3, "entries": [{"i": 1, "j": 2}]},
        {"dim": 3, "entries": [[1, 2, 3, 1.0]]},
        {"dim": 100000, "entries": []},
        {"dim": 3.7, "entries": [{"i": 1.9, "j": "2", "k": True, "v": 1}]},
    ])
    def test_malformed_input_exit_code(self, payload, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(payload))
        assert main(["classify", "--input", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_input_is_a_validation_error(self, tmp_path, capsys):
        # Squares of these coefficients overflow; the cap on |c| rejects them
        # before any curvature or eigenvalue is formed.
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"dim": 3, "entries": [
            {"i": 1, "j": 2, "k": 3, "v": 1e308}, {"i": 1, "j": 3, "k": 2, "v": 1e308},
        ]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["classify", "--input", str(path)]) == EXIT_VALIDATION
        assert caught == []
        assert capsys.readouterr().err.startswith("error: largest |coefficient| 1.000e+308 exceeds")

    def test_repeated_overflowing_entry_gives_one_error_line(self, tmp_path, capsys):
        # The two entries share one index; each is checked as it is read, so
        # their sum never overflows.
        path = tmp_path / "mu.json"
        entry = {"i": 1, "j": 2, "k": 3, "v": 1e308}
        path.write_text(json.dumps({"dim": 3, "entries": [entry, entry]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["classify", "--input", str(path)]) == EXIT_VALIDATION
        assert caught == []
        want = "error: largest |coefficient| 1.000e+308 exceeds the cap 1e+25\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("name, dim", [("abelian", "100000"), ("heisenberg", "100001")])
    def test_oversized_catalog_dim_exit_code(self, name, dim, capsys):
        assert main(["catalog", name, "--dim", dim]) == EXIT_VALIDATION
        assert "outside the supported range" in capsys.readouterr().err

    def test_uniqueness_command(self, capsys):
        assert main(["uniqueness", "--catalog", "h3", "--seeds", "2", "--t-end", "20"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seeds"] == 2 and all(data["converged"])

    def test_collapse_command(self, capsys):
        assert main([
            "collapse", "--catalog", "e2", "--t-end", "30", "--gauge-diag", "1,1,1.5",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["non_collapsed"] is False

    def test_uniqueness_nonconvergence_exit_code(self, capsys):
        # The s3 orbit flows toward its limit on a power-law clock; at t = 20
        # the rigidity tail is far above threshold, which must exit with 3.
        code = main(["uniqueness", "--catalog", "s3", "--seeds", "2", "--t-end", "20"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("non-convergence: ")
