"""Acceptance suite: every criterion at its stated count and tolerance,
one pass/fail line per criterion on stdout (run with pytest -s to watch)."""

import math
import time

import numpy as np

from spdorders import (
    check_differential_positivity,
    conal_path_oracle,
    cone_membership,
    congruence_map,
    dual_spectral_cone,
    find_order_counterexample,
    geodesic,
    geometric_mean,
    half_space_affine,
    integrate_flow,
    inversion_map,
    loewner,
    map_differential,
    matrix_function,
    order_compare,
    order_interval_sample,
    phi,
    power_map,
    projected_eigenvalues,
    quadratic_affine,
    quadratic_translation,
    random_ordered_pair,
    random_spd,
    scaling_map,
    spd_validate,
    spectral_membership,
    trace_identity_residual,
    trace_inequality_fuzz,
    translation_map,
)
from spdorders.cones import SpectralCone, sample_spectral_boundary
from spdorders.core import derive_rng, random_sym
from spdorders.geometry import det_leaf, relative_eigenvalues, riemannian_exp
from spdorders.monotone import sylvester_residual
from spdorders.viz2 import coordinate_margins, phi_inverse, tangent_to_coords

from test_flows import closed_form

CONFIGS = [(n, mu) for n in (2, 3, 5) for mu in (0.5, n / 2, n - 0.5)]

ORDERED = ("less_equal", "equal")


def report(criterion, ok, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def random_pair(n, seed, scale=0.8):
    return random_spd(n, derive_rng(seed, 0), scale), random_spd(n, derive_rng(seed, 1), scale)


def build_interval_pairs(spec, n, config_index, endpoint_count=100, per_interval=5):
    """1000 ordered pairs per configuration, built through order_interval_sample."""
    pairs = []
    for e in range(endpoint_count):
        s1, s2 = random_ordered_pair(spec, n, seed=31_000 + 97 * config_index + e)
        interior = order_interval_sample(spec, s1, s2, seed=e, count=per_interval)
        for p in interior:
            pairs.append((s1, p))
            pairs.append((p, s2))
    return pairs


def test_criterion_01_order_test_equivalence():
    started = time.monotonic()
    disagreements = 0
    total = 0
    for idx, (n, mu) in enumerate(CONFIGS):
        spec = quadratic_affine(mu, n)
        for k in range(500):
            if k < 250:
                a, b = random_pair(n, seed=idx * 1000 + k)
            elif k < 450:
                a, b = random_ordered_pair(spec, n, seed=idx * 1000 + k)
            else:
                b, a = random_ordered_pair(spec, n, seed=idx * 1000 + k)
            spectral = order_compare(spec, a, b, tol=1e-10).relation in ORDERED
            path = conal_path_oracle(spec, a, b, samples=100, tol=1e-10)
            disagreements += spectral != path
            total += 1
    elapsed = time.monotonic() - started
    report(
        "1 order-test equivalence",
        disagreements == 0 and elapsed < 60.0,
        f"({total} pairs, {disagreements} disagreements, {elapsed:.1f}s)",
    )


def test_criterion_02_generalized_loewner_heinz():
    violations = 0
    total = 0
    for idx, (n, mu) in enumerate(CONFIGS):
        spec = quadratic_affine(mu, n)
        pairs = build_interval_pairs(spec, n, idx)
        assert len(pairs) == 1000
        points = {}
        for a, b in pairs:
            points.setdefault(id(a), a)
            points.setdefault(id(b), b)
        for r in (0.25, 0.5, 0.75, 1.0):
            images = {key: matrix_function(p, "power", r) for key, p in points.items()}
            for a, b in pairs:
                verdict = order_compare(spec, images[id(a)], images[id(b)], tol=1e-9)
                violations += verdict.relation not in ORDERED
                total += 1
    report("2 generalized Loewner-Heinz", violations == 0, f"({total} ordered pairs, {violations} violations)")


def test_criterion_03_square_map_counterexamples():
    outcomes = []
    found_loewner = find_order_counterexample(power_map(2.0), loewner(2), seed=3, budget=10_000)
    outcomes.append(f"loewner n=2: {'found@' + str(found_loewner[2]) if found_loewner else 'not found'}")
    ok = found_loewner is not None
    for idx, (n, mu) in enumerate(CONFIGS):
        spec = quadratic_affine(mu, n)
        found = find_order_counterexample(power_map(2.0), spec, seed=100 + idx, budget=10_000)
        outcomes.append(f"mu={mu:g},n={n}: {'found@' + str(found[2]) if found else 'not found'}")
        ok = ok and found is not None
    report("3 square-map non-monotonicity", ok, "(" + "; ".join(outcomes) + ")")


def test_criterion_04_dual_cone_pairings():
    ok = True
    details = []
    for n, mu in CONFIGS:
        primal = np.array([sample_spectral_boundary(mu, n, derive_rng(41, n, i)) for i in range(200)])
        dual = np.array([sample_spectral_boundary(n - mu, n, derive_rng(42, n, i)) for i in range(200)])
        worst = float((primal @ dual.T).min())
        ok = ok and worst >= -1e-9
        # self-duality holds exactly at mu = n/2
        ok = ok and dual_spectral_cone(SpectralCone(n / 2, n)).mu == n / 2
        # a cone wider than the true dual produces a strictly negative pairing
        wrong = np.array([sample_spectral_boundary((n - mu) / 2, n, derive_rng(43, n, i)) for i in range(200)])
        witness = float((primal @ wrong.T).min())
        ok = ok and witness < -1e-6
        details.append(f"n={n},mu={mu:g}: worst={worst:.1e}, wrong-dual witness={witness:.1e}")
    report("4 dual-cone pairings", ok, "(" + "; ".join(details[:3]) + "; ...)")


def test_criterion_05_coincidences():
    affine = quadratic_affine(1.0, 2)
    translation = quadratic_translation(1.0, 2)
    mismatch = 0
    for k in range(1000):
        a, b = random_pair(2, seed=50_000 + k)
        mismatch += order_compare(affine, a, b).relation != order_compare(translation, a, b).relation
    loewner_mismatch = 0
    for n in (2, 3, 5):
        spec = loewner(n)
        for k in range(350):
            a, b = random_pair(n, seed=60_000 + 1000 * n + k)
            translation_verdict = order_compare(spec, a, b).relation in ORDERED
            affine_verdict = bool(np.min(relative_eigenvalues(a, b)) >= 1.0 - 1e-10)
            loewner_mismatch += translation_verdict != affine_verdict
            x = random_sym(n, derive_rng(61, n, k))
            inv_root = a.spectrum.apply(lambda w: w**-0.5)
            conj = inv_root @ x @ inv_root
            affine_member = np.linalg.eigvalsh(conj)[0] >= -1e-10 * np.linalg.norm(conj)
            loewner_mismatch += cone_membership(spec, a, x).inside != affine_member
    report(
        "5 mu=1/n=2 and Loewner coincidences",
        mismatch == 0 and loewner_mismatch == 0,
        f"(quad mismatches: {mismatch}, loewner mismatches: {loewner_mismatch})",
    )


def test_criterion_06_determinant_foliation():
    increasing_failures = 0
    for k in range(100):
        n, mu = CONFIGS[k % len(CONFIGS)]
        spec = quadratic_affine(mu, n)
        s1, s2 = random_ordered_pair(spec, n, seed=70_000 + k)
        leaf = [det_leaf(geodesic(s1, s2, t)) for t in np.linspace(0.0, 1.0, 100)]
        if not np.all(np.diff(leaf) > 0):
            increasing_failures += 1
    constant_failures = 0
    for k in range(50):
        a = random_spd(3, derive_rng(71, k), 0.7)
        raw = random_spd(3, derive_rng(72, k), 0.7)
        b = spd_validate(raw.entries * math.exp((a.log_det - raw.log_det) / 3.0))
        leaf = [det_leaf(geodesic(a, b, t)) for t in np.linspace(0.0, 1.0, 100)]
        if np.max(np.abs(np.array(leaf) - a.log_det)) > 1e-9:
            constant_failures += 1
        w = random_sym(3, derive_rng(73, k))
        w -= (np.trace(w) / 3.0) * np.eye(3)
        root = a.spectrum.apply(np.sqrt)
        x = root @ w @ root
        for t in np.linspace(0.0, 1.0, 100):
            if abs(det_leaf(riemannian_exp(a, t * x)) - a.log_det) > 1e-9:
                constant_failures += 1
                break
    report(
        "6 determinant foliation",
        increasing_failures == 0 and constant_failures == 0,
        f"(strict failures: {increasing_failures}, leaf failures: {constant_failures})",
    )


def test_criterion_07_differential_correctness():
    rng_maps = [
        power_map(0.25), power_map(0.5), power_map(0.75), power_map(1.0),
        power_map(2.0), power_map(3.7), inversion_map(), scaling_map(2.5),
    ]
    worst = 0.0
    count = 0
    for k in range(1000):
        rng = derive_rng(80_000, k)
        n = int(rng.integers(2, 6))
        if k % 10 == 8:
            m = congruence_map(rng.standard_normal((n, n)))
        elif k % 10 == 9:
            m = translation_map(random_spd(n, rng, 0.4).entries)
        else:
            m = rng_maps[k % len(rng_maps)]
        sigma = random_spd(n, rng, 0.5)
        x = random_sym(n, rng)
        analytic = map_differential(m, sigma, x).entries
        h = 1e-5 * np.linalg.norm(sigma.entries) / np.linalg.norm(x)
        fd = (
            m.apply(spd_validate(sigma.entries + h * x)).entries
            - m.apply(spd_validate(sigma.entries - h * x)).entries
        ) / (2.0 * h)
        worst = max(worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
        count += 1
    sylvester_worst = 0.0
    for p in (2, 3, 5, 7):
        for k in range(25):
            sigma = random_spd(3, derive_rng(81, p, k), 0.7)
            x = random_sym(3, derive_rng(82, p, k))
            sylvester_worst = max(sylvester_worst, sylvester_residual(p, sigma, x))
    report(
        "7 differential correctness",
        worst <= 1e-6 and sylvester_worst <= 1e-8,
        f"({count} triples, FD error {worst:.1e}, Sylvester residual {sylvester_worst:.1e})",
    )


def test_criterion_08_trace_identities_and_inequalities():
    identity_worst = 0.0
    for r in (1.0 / 3.0, 0.5, 2.0, 3.7):
        for k in range(250):
            sigma = random_spd(3, derive_rng(90, int(r * 100), k), 0.7)
            x = random_sym(3, derive_rng(91, int(r * 100), k))
            identity_worst = max(identity_worst, trace_identity_residual(power_map(r), sigma, x))
    lemma_worst = min(
        trace_inequality_fuzz("power_trace_lemma", m, seed=92_000 + m, count=3334) for m in (1, 2, 3)
    )
    shift_worst = min(
        trace_inequality_fuzz("shift_inequality", k, seed=93_000 + k, count=2500) for k in (0, 1, 2, 3)
    )
    report(
        "8 trace identities and inequalities",
        identity_worst <= 1e-8 and lemma_worst >= -1e-10 and shift_worst >= -1e-10,
        f"(identity {identity_worst:.1e}, lemma slack {lemma_worst:.1e}, shift slack {shift_worst:.1e})",
    )


def test_criterion_09_flows():
    x0 = random_sym(8, 901, scale=0.5)
    toda = integrate_flow("toda", x0, t_end=10.0, step=1e-3)
    sigma0 = random_spd(8, 902, scale=0.35)
    qr = integrate_flow("qr", sigma0, t_end=10.0, step=1e-3)
    drift = max(toda.spectrum_drift(), qr.spectrum_drift())

    worst_step = 0.0
    for traj in (toda, qr):
        for r in range(1, 9):
            curves = projected_eigenvalues(traj, r)
            worst_step = min(worst_step, float(np.min(np.diff(curves, axis=0))))

    # Symes' QR-factorization solution at the final time, chained in chunks of
    # t_k (lambda_max - lambda_min) <= 3 of G0 = X0 or log S0, where exp(t_k G0) = QR stays well conditioned
    # (measured: 1.9e-13 for Toda, 1.8e-14 for QR; unchained at t = 10, Toda's QR alone is off by 6.4e-5)
    closed_form_gap = 0.0
    for traj in (toda, qr):
        g = traj.initial_spectrum if traj.flow_kind == "toda" else np.log(traj.initial_spectrum)
        chunks = math.ceil(traj.times[-1] * (g[-1] - g[0]) / 3.0)
        exact = traj.states[0]
        for _ in range(chunks):
            exact = closed_form(traj.flow_kind, exact, traj.times[-1] / chunks)
        closed_form_gap = max(closed_form_gap, float(np.abs(traj.states[-1] - exact).max()))

    y0 = random_sym(4, 903)
    h = 0.02
    coarse = integrate_flow("toda", y0, 1.0, h).states[-1]
    medium = integrate_flow("toda", y0, 1.0, h / 2).states[-1]
    reference = integrate_flow("toda", y0, 1.0, h / 4).states[-1]
    ratio = np.linalg.norm(coarse - reference) / np.linalg.norm(medium - reference)

    report(
        "9 isospectral flows",
        drift <= 1e-6 and worst_step >= -1e-8 and 8.0 <= ratio <= 32.0 and closed_form_gap <= 1e-11,
        f"(drift {drift:.1e}, worst step decrease {worst_step:.1e}, RK4 ratio {ratio:.1f}, "
        f"closed form {closed_form_gap:.1e})",
    )


def test_criterion_10_geometric_mean_axioms():
    symmetry_worst = 0.0
    for k in range(500):
        a, b = random_pair(3, seed=100_000 + k, scale=0.7)
        m1 = geometric_mean(a, b).entries
        m2 = geometric_mean(b, a).entries
        symmetry_worst = max(symmetry_worst, np.linalg.norm(m1 - m2) / np.linalg.norm(m1))

    betweenness_failures = 0
    monotonicity_failures = 0
    per_config = 500 // len(CONFIGS) + 1
    between_count = 0
    mono_count = 0
    for idx, (n, mu) in enumerate(CONFIGS):
        spec = quadratic_affine(mu, n)
        for k in range(per_config):
            if between_count < 500:
                s1, s2 = random_ordered_pair(spec, n, seed=101_000 + idx * 200 + k)
                mid = geometric_mean(s1, s2)
                ok = (
                    order_compare(spec, s1, mid).relation in ORDERED
                    and order_compare(spec, mid, s2).relation in ORDERED
                )
                betweenness_failures += not ok
                between_count += 1
            if mono_count < 500:
                a, b = random_ordered_pair(spec, n, seed=102_000 + idx * 200 + k)
                other = random_spd(n, derive_rng(103, idx, k), 0.7)
                v = order_compare(spec, geometric_mean(a, other), geometric_mean(b, other))
                monotonicity_failures += v.relation not in ORDERED
                mono_count += 1

    equivariance_worst = 0.0
    for k in range(500):
        rng = derive_rng(104, k)
        a, b = random_pair(3, seed=105_000 + k, scale=0.7)
        g = rng.standard_normal((3, 3))
        lhs = geometric_mean(
            spd_validate(g.T @ a.entries @ g), spd_validate(g.T @ b.entries @ g)
        ).entries
        rhs = g.T @ geometric_mean(a, b).entries @ g
        equivariance_worst = max(equivariance_worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))

    report(
        "10 geometric mean axioms",
        symmetry_worst <= 1e-9
        and betweenness_failures == 0
        and monotonicity_failures == 0
        and equivariance_worst <= 1e-8,
        f"(symmetry {symmetry_worst:.1e}, betweenness fails {betweenness_failures}/{between_count}, "
        f"monotonicity fails {monotonicity_failures}/{mono_count}, equivariance {equivariance_worst:.1e})",
    )


def test_criterion_11_half_space_preorder():
    spec = half_space_affine(3)
    violations = 0
    for r in (0.5, 2.0, 3.7):
        for k in range(1000):
            a, b = random_pair(3, seed=110_000 + k)
            if a.log_det > b.log_det:
                a, b = b, a
            fa = matrix_function(a, "power", r)
            fb = matrix_function(b, "power", r)
            violations += order_compare(spec, fa, fb, tol=1e-9).relation not in ORDERED
    report("11 half-space preorder under powers", violations == 0, f"(3000 pairs, {violations} violations)")


def test_criterion_12_coordinate_formulas():
    roundtrip_worst = 0.0
    for k in range(1000):
        sigma = random_spd(2, derive_rng(120, k), 0.9)
        back = phi_inverse(phi(sigma))
        roundtrip_worst = max(
            roundtrip_worst,
            np.max(np.abs(back.entries - sigma.entries)) / np.max(np.abs(sigma.entries)),
        )

    disagreements = 0
    checked = 0
    specs = [quadratic_affine(0.5, 2), quadratic_affine(1.0, 2), quadratic_affine(1.5, 2),
             quadratic_translation(0.8, 2), half_space_affine(2)]
    for k in range(1000):
        rng = derive_rng(121, k)
        spec = specs[k % len(specs)]
        sigma = random_spd(2, rng, 0.8)
        x = random_sym(2, rng)
        lin, quad = coordinate_margins(spec, phi(sigma), tangent_to_coords(x))
        margins = [lin] if quad is None else [lin, quad]
        abstract = cone_membership(spec, sigma, x)
        if min(abs(v) for v in margins) <= 1e-9 or abs(abstract.margin) <= 1e-9:
            continue
        coord_inside = all(v >= 0 for v in margins)
        disagreements += coord_inside != abstract.inside
        checked += 1
    report(
        "12 coordinate-formula pullbacks",
        roundtrip_worst <= 1e-12 and disagreements == 0 and checked > 800,
        f"(roundtrip {roundtrip_worst:.1e}, {checked} sign checks, {disagreements} disagreements)",
    )
