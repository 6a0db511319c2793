"""End-to-end acceptance checks for the package's advertised guarantees.

Each test prints one PASS/FAIL line with the measured margins (visible under
pytest -s) and enforces the same condition with asserts. The Boston tests
share a single evaluation run of the shipped tuned config, so this module
takes a few minutes on one core; everything else is seconds.
"""
import csv
import filecmp
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, safe_case
from regrobust.attacks import AttackConfig, fgsm, pgd
from regrobust.cli import main as cli_main
from regrobust.defenses import DefenseConfig, ansr_batch
from regrobust.evaluation import read_cells_csv
from regrobust.losses import loss_value
from regrobust.nn import (
    RegressionNet,
    batch_backward,
    forward,
    grad_penalty_batch,
    initialize,
    input_gradient,
    params_to_vector,
    vector_to_net,
)

REPO = Path(__file__).resolve().parents[1]


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def nre(approx, exact) -> float:
    """Normwise relative error; robust when single components sit near zero."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return float(np.max(np.abs(approx - exact)) / max(np.max(np.abs(exact)), 1e-9))


# ---------------------------------------------------------------------------
# 1. gradient correctness against central finite differences


def _ansr_fd_case(rng, n_samples=8):
    """(net, x, nn distance, label gap, cfg, seed) with frozen draws clear of gates/kinks."""
    while True:
        net, x, _ = safe_case(rng, input_dim=3, margin=2e-2, loss_margin=False)
        dist = float(rng.uniform(0.05, 0.2))
        seed = int(rng.integers(2**63))
        U = np.random.default_rng(seed).uniform(-1.0, 1.0, (1, n_samples, 3))
        pts = x + dist * U[0]
        if np.abs(pts @ net.w1.T + net.b1).min() < 5e-3:
            continue
        ady = np.abs(forward(net, x) - forward(net, pts))
        order = np.sort(ady)
        k = int(rng.integers(1, n_samples))  # how many samples the gate passes
        if order[-k] - order[-k - 1] < 2e-3:
            continue
        gap = float((order[-k] + order[-k - 1]) / 2.0)
        cfg = DefenseConfig(
            kind="ansr", lam=float(rng.uniform(0.25, 4.0)), n_samples=n_samples
        )
        return net, x, dist, gap, cfg, seed


def test_gradient_suite_matches_finite_differences():
    rng = np.random.default_rng(20240817)
    worst_first = 0.0
    worst_second = 0.0
    cases = 0

    for i in range(500):  # first order: theta- and x-gradients of the loss
        loss = "squared_error" if i % 2 == 0 else "pseudo_huber"
        delta = float(rng.uniform(0.3, 3.0))
        act = "identity" if i % 4 < 2 else "sigmoid"
        net, x, y = safe_case(rng, margin=1e-3, output_activation=act, loss_margin=False)
        _, d_theta = batch_backward(net, x[None, :], [y], loss=loss, delta=delta)
        d_x = input_gradient(net, x, y, loss=loss, delta=delta)
        theta0 = params_to_vector(net)

        def f_theta(th):
            return float(loss_value(loss, y - forward(vector_to_net(net, th), x), delta))

        def f_x(xv):
            return float(loss_value(loss, y - forward(net, xv), delta))

        worst_first = max(
            worst_first,
            nre(d_theta, fd_gradient(f_theta, theta0, h=1e-5)),
            nre(d_x, fd_gradient(f_x, x, h=1e-5)),
        )
        cases += 1

    for i in range(250):  # input-gradient penalty (frozen signs)
        loss = "squared_error" if i % 2 == 0 else "pseudo_huber"
        delta = float(rng.uniform(0.3, 3.0))
        sigma = float(rng.uniform(0.2, 2.0))
        act = "identity" if i % 4 < 2 else "sigmoid"
        net, x, y = safe_case(rng, margin=1e-2, output_activation=act)
        _, grad = grad_penalty_batch(net, x[None, :], [y], sigma, loss=loss, delta=delta)
        theta0 = params_to_vector(net)

        def f_pen(th):
            d_x = input_gradient(vector_to_net(net, th), x, y, loss=loss, delta=delta)
            return sigma * float(np.abs(d_x).sum())

        worst_second = max(worst_second, nre(grad, fd_gradient(f_pen, theta0, h=1e-6)))
        cases += 1

    for _ in range(250):  # stability penalty (frozen samples and gates)
        net, x, dist, gap, cfg, seed = _ansr_fd_case(rng)
        radius = [cfg.beta * dist]
        _, grad = ansr_batch(
            net, x[None, :], radius, [gap], cfg.n_samples, np.random.default_rng(seed)
        )
        grad = cfg.lam * grad
        theta0 = params_to_vector(net)

        def f_omega(th):
            n2 = vector_to_net(net, th)
            omega, _ = ansr_batch(
                n2, x[None, :], radius, [gap], cfg.n_samples, np.random.default_rng(seed)
            )
            return cfg.lam * omega[0]

        worst_second = max(worst_second, nre(grad, fd_gradient(f_omega, theta0, h=1e-6)))
        cases += 1

    ok = worst_first < 1e-4 and worst_second < 1e-3
    line = _verdict(
        "gradient suite",
        ok,
        f"{cases} cases, first-order max rel err {worst_first:.2e} (tol 1e-4), "
        f"second-order/stability {worst_second:.2e} (tol 1e-3)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 2. attack ball bounds and the one-step equivalence


def test_attack_ball_bounds_and_single_step_equivalence():
    rng = np.random.default_rng(777)
    cases = 0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        net = initialize(d, rng, hidden_dim=int(rng.integers(1, 7)))
        X = rng.normal(size=(50, d))
        Y = rng.normal(size=50)
        eps = float(rng.uniform(0.01, 0.5))
        rho = float(rng.uniform(0.01, 0.5))
        cfg = AttackConfig(
            kind="pgd",
            epsilon=float(rng.uniform(0.25, 1.5) * rho),
            rho=rho,
            steps=int(rng.integers(1, 12)),
        )
        adv_f = fgsm(net, X, Y, eps)
        assert np.all(adv_f <= X + eps) and np.all(adv_f >= X - eps)
        adv_p = pgd(net, X, Y, cfg)
        assert np.all(adv_p <= X + rho) and np.all(adv_p >= X - rho)
        cases += 2 * X.shape[0]

    agree = 0
    for _ in range(30):
        d = int(rng.integers(1, 7))
        net = initialize(d, rng)
        X = rng.normal(size=(20, d))
        Y = rng.normal(size=20)
        e = float(rng.uniform(0.02, 0.3))
        one_step = AttackConfig(kind="pgd", epsilon=e, rho=e, steps=1)
        agree += int(np.array_equal(pgd(net, X, Y, one_step), fgsm(net, X, Y, e)))

    ok = cases == 10_000 and agree == 30
    line = _verdict(
        "attack invariants",
        ok,
        f"{cases} ball-bound cases exact, one-step pgd == fgsm bitwise in {agree}/30 nets",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 3. zero-penalty properties


def test_stability_penalty_zero_cases():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        nn_distance = float(rng.uniform(0.0, 2.0))
        label_gap = float(rng.uniform(0.0, 3.0))
        cfg = DefenseConfig(kind="ansr", beta=float(rng.uniform(0.5, 4.0)), n_samples=16)
        x = rng.normal(size=d)

        flat = initialize(d, rng)
        flat = replace(flat, w2=np.zeros_like(flat.w2))  # output = b2 everywhere
        dead = initialize(d, rng)
        dead = replace(dead, w1=0.1 * dead.w1, b1=dead.b1 - 6.0)  # relu never fires
        X = x[None, :]
        radius = [cfg.beta * nn_distance]
        for net in (flat, dead):
            omega, grad = ansr_batch(
                net, X, radius, [label_gap], cfg.n_samples, np.random.default_rng(1)
            )
            assert omega[0] == 0.0
            assert not np.any(cfg.lam * grad)
            checked += 2

        live = initialize(d, rng)
        omega, grad = ansr_batch(
            live, X, [cfg.beta * 1.0], [1e9], cfg.n_samples,
            np.random.default_rng(2),
        )
        assert omega[0] == 0.0
        assert not np.any(cfg.lam * grad)
        omega, _ = ansr_batch(
            live, X, [cfg.beta * 0.0], [0.0], cfg.n_samples,
            np.random.default_rng(3),
        )
        assert omega[0] == 0.0
        checked += 3

    line = _verdict(
        "zero penalty",
        True,
        f"{checked} exact-zero checks (constant nets, full gating, zero radius)",
    )
    assert checked == 350, line


# ---------------------------------------------------------------------------
# 4. Monte-Carlo consistency of the stability penalty


def test_penalty_monte_carlo_consistency():
    net = RegressionNet(
        w1=np.array([[1.0]]), b1=np.array([10.0]), w2=np.array([1.0]), b2=-10.0
    )  # f(x) = x for x > -10
    x = np.array([0.3])
    nn_distance, label_gap = 0.8, 0.4
    cfg = DefenseConfig(kind="ansr", n_samples=100)

    # brute-force oracle: for the identity map the gated integrand is
    # t^2 * 1[|t| > gap] with t uniform on [-radius, radius]
    t = np.random.default_rng(424242).uniform(-0.8, 0.8, 1_000_000)
    oracle = float(np.mean(t * t * (np.abs(t) > 0.4)))

    covered = 0
    for r in range(100):
        seed = 5000 + r
        omega, _ = ansr_batch(
            net, x[None, :], [cfg.beta * nn_distance], [label_gap], cfg.n_samples,
            np.random.default_rng(seed),
        )
        est = omega[0]
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, (1, 100, 1))[0, :, 0]
        vals = (0.8 * u) ** 2 * (np.abs(0.8 * u) > 0.4)
        assert abs(float(vals.mean()) - est) < 1e-12  # same stream, same estimate
        se = float(vals.std(ddof=1)) / 10.0
        covered += int(abs(est - oracle) <= 3.0 * se)

    ok = covered >= 95
    line = _verdict(
        "monte carlo",
        ok,
        f"100-sample estimate within 3 SE of 1e6-sample oracle in {covered}/100 reps "
        f"(need >= 95), oracle {oracle:.5f}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# Boston pipeline: one shared evaluation run for the remaining criteria


@pytest.fixture(scope="module")
def boston_eval(tmp_path_factory):
    cfg = json.loads((REPO / "configs" / "boston_tuned.json").read_text())
    out = tmp_path_factory.mktemp("boston_eval")
    cfg["dataset"]["path"] = str(REPO / "data" / "boston.csv")
    cfg["out_dir"] = str(out)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["evaluate", "--config", str(cfg_path), "--jobs", "2"]) == 0
    cells = read_cells_csv(out / "cells.csv")
    with open(out / "points.csv", newline="") as f:
        points = list(csv.DictReader(f))
    return cells, points


def _mses(cells, defense, attack):
    vals = [c.test_mse for c in cells if c.defense == defense and c.attack == attack]
    assert len(vals) == 6, f"expected 6 seeds for {defense}/{attack}, got {len(vals)}"
    return vals


def _mean(cells, defense, attack):
    vals = _mses(cells, defense, attack)
    return sum(vals) / len(vals)


def test_boston_defense_orderings(boston_eval):
    cells, _ = boston_eval
    nd_clean = _mean(cells, "none", "none")
    nd_pgd = _mean(cells, "none", "pgd")
    ansr_pgd = _mean(cells, "ansr", "pgd")
    ph_pgd = _mean(cells, "pseudo_huber", "pgd")
    gr_pgd = _mean(cells, "grad_reg", "pgd")

    a = nd_pgd >= 2.0 * nd_clean
    b = ansr_pgd <= 0.75 * nd_pgd
    c = ansr_pgd <= 1.05 * ph_pgd and ansr_pgd <= 1.05 * gr_pgd
    ok = a and b and c
    line = _verdict(
        "boston orderings",
        ok,
        f"undefended pgd/clean {nd_pgd / nd_clean:.2f}x (need >= 2); "
        f"ansr/undefended pgd {ansr_pgd / nd_pgd:.2f} (need <= 0.75); "
        f"ansr {ansr_pgd:.1f} vs pseudo-huber {ph_pgd:.1f} and grad-reg {gr_pgd:.1f} "
        f"(need <= 1.05x both)",
    )
    assert ok, line


def test_boston_fgsm_pgd_relationship(boston_eval):
    cells, _ = boston_eval
    details = []
    ok = True
    for defense in ("none", "pseudo_huber", "grad_reg", "ansr", "combined"):
        fg = _mses(cells, defense, "fgsm")
        pg = _mses(cells, defense, "pgd")
        mean_fg = sum(fg) / len(fg)
        mean_pg = sum(pg) / len(pg)
        rel = abs(mean_pg - mean_fg) / mean_pg
        votes = sum(p >= f for p, f in zip(pg, fg))
        ok = ok and rel < 0.15 and votes >= 4
        details.append(f"{defense}: gap {rel:.1%}, pgd>=fgsm {votes}/6")
    line = _verdict("fgsm vs pgd", ok, "; ".join(details) + " (need <15% and >=4/6)")
    assert ok, line


def _point_column(points, defense, seed, column):
    vals = np.array(
        [
            float(r[column])
            for r in points
            if r["defense"] == defense and r["attack"] == "pgd" and int(r["seed"]) == seed
        ]
    )
    assert vals.size == 101
    return vals


def test_boston_error_distribution_shift(boston_eval):
    # Median compares the attacked error against the labels; the max compares
    # the attack-induced response shift |f(x_adv) - f(x)|, which is what a
    # stability defense bounds (the error-vs-label max is dominated by how
    # well the clean model fits the capped-price outliers, not by the attack).
    _, points = boston_eval
    med_votes = 0
    max_votes = 0
    for seed in range(6):
        err_nd = _point_column(points, "none", seed, "abs_err_adv")
        err_an = _point_column(points, "ansr", seed, "abs_err_adv")
        shift_nd = _point_column(points, "none", seed, "pred_shift")
        shift_an = _point_column(points, "ansr", seed, "pred_shift")
        med_votes += int(np.median(err_an) < np.median(err_nd))
        max_votes += int(shift_an.max() < shift_nd.max())
    ok = med_votes >= 4 and max_votes >= 4
    line = _verdict(
        "attacked distribution",
        ok,
        f"ansr beats undefended attacked-error median in {med_votes}/6 seeds and "
        f"max response shift in {max_votes}/6 (need >= 4/6 each)",
    )
    assert ok, line


def test_boston_combined_competitive(boston_eval):
    cells, _ = boston_eval
    combined = _mean(cells, "combined", "pgd")
    best = min(
        _mean(cells, "pseudo_huber", "pgd"),
        _mean(cells, "grad_reg", "pgd"),
        _mean(cells, "ansr", "pgd"),
    )
    n_cells = len([c for c in cells if c.defense == "combined"])
    ok = n_cells == 18 and combined <= 1.5 * best
    line = _verdict(
        "combined defense",
        ok,
        f"ran end-to-end ({n_cells} cells), pgd mse {combined:.1f} vs best single "
        f"{best:.1f} ({combined / best:.2f}x, need <= 1.5x)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. byte determinism of the full pipeline across worker counts


def _write_pipeline_inputs(root: Path) -> Path:
    rng = np.random.default_rng(99)
    x = rng.normal(size=(80, 2))
    y = 1.5 * x[:, 0] - 0.8 * x[:, 1] + 0.1 * rng.normal(size=80)
    lines = ["f1,f2,target"]
    for i in range(80):
        lines.append(f"{float(x[i, 0])!r},{float(x[i, 1])!r},{float(y[i])!r}")
    (root / "toy.csv").write_text("\n".join(lines) + "\n")
    cfg = {
        "dataset": {"path": str(root / "toy.csv"), "target_column": "target",
                    "name": "toy"},
        "out_dir": str(root / "out"),
        "fractions": [0.6, 0.2, 0.2],
        "seed": 5,
        "train": {"learning_rate": 0.01, "batch_size": 16, "epochs": 60},
        "search": {"objective": "val_mse_pgd", "n_trials": 2},
        "defenses": [
            {"kind": "none"},
            {"kind": "grad_reg", "sigma": 0.3},
            {"kind": "ansr", "tune": True},
        ],
        "attacks": [
            {"kind": "none"},
            {"kind": "fgsm", "epsilon": 0.1},
            {"kind": "pgd", "epsilon": 0.025, "rho": 0.1, "steps": 10},
        ],
        "n_samples": 8,
        "n_seeds": 2,
        "jobs": 1,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


ARTIFACTS = (
    "dataset_cache.json",
    "tuned_ansr.json",
    "trials_ansr.jsonl",
    "cells.csv",
    "points.csv",
    "summary.json",
)


def test_pipeline_byte_determinism_across_jobs(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        root = tmp_path / f"jobs{jobs}"
        root.mkdir()
        cfg_path = _write_pipeline_inputs(root)
        for stage in ("prepare", "tune", "evaluate", "report"):
            rc = cli_main([stage, "--config", str(cfg_path), "--jobs", jobs])
            assert rc == 0, f"{stage} failed with --jobs {jobs}"
        outs.append(root / "out")

    same = [
        name for name in ARTIFACTS if filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
    ]
    ok = same == list(ARTIFACTS)
    line = _verdict(
        "determinism",
        ok,
        f"{len(same)}/{len(ARTIFACTS)} artifacts byte-identical between --jobs 1 and --jobs 2",
    )
    assert ok, line
