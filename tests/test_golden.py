"""Golden outputs: exact results of short runs, pinned byte for byte.

Each case pins ``repr(best_fitness)``, the evaluation and iteration counts,
and a sha256 over ``best_position`` and every trace column. The cases cover
every registry function, the scalable ones at d=10 and d=30, and the
non-default configurations (early stop at a target, a small swarm with a
low elimination threshold, an initial vorticity outside the clamp, an
objective that returns inf/nan over part of its box), so any
change to the arithmetic or to the random stream layout shows up here.
"""

import hashlib

import numpy as np
import pytest

from vortexopt import Objective, VoaConfig, get_objective, run


def _patchy(x):
    # Finite bowl over most of the box; nan for x0 > 3, +inf for x1 < -4.
    if x[0] > 3.0:
        return float("nan")
    if x[1] < -4.0:
        return float("inf")
    return (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2


def _objective(name, dimension):
    if name == "patchy":
        return Objective(name="patchy", dimension=2, bounds=((-5.0, 5.0), (-5.0, 5.0)),
                         evaluate=_patchy)
    return get_objective(name, dimension)


# (case id, function, dimension, VoaConfig keyword arguments)
CASES = [
    ("booth", "booth", 2, {"max_iterations": 300, "seed": 1}),
    ("beale", "beale", 2, {"max_iterations": 300, "seed": 2}),
    ("goldstein_price", "goldstein_price", 2, {"max_iterations": 300, "seed": 3}),
    ("mccormick", "mccormick", 2, {"max_iterations": 300, "seed": 4}),
    ("three_hump_camel", "three_hump_camel", 2, {"max_iterations": 300, "seed": 5}),
    ("sphere_d10", "sphere", 10, {"max_iterations": 200, "seed": 6}),
    ("sphere_d30", "sphere", 30, {"max_iterations": 150, "seed": 7}),
    ("rosenbrock_d10", "rosenbrock", 10, {"max_iterations": 200, "seed": 8}),
    ("rosenbrock_d30", "rosenbrock", 30, {"max_iterations": 150, "seed": 9}),
    ("target_stop", "booth", 2, {"max_iterations": 300, "seed": 11, "target_fitness": 1e-8}),
    ("small_swarm", "sphere", 10,
     {"max_iterations": 300, "seed": 12, "n_particles": 20, "elimination_threshold": 5}),
    ("kicked_vorticity", "goldstein_price", 2,
     {"max_iterations": 300, "seed": 13, "initial_vorticity": 9.0}),
    ("non_finite", "patchy", 2, {"max_iterations": 300, "seed": 14}),
]

TRACE_COLUMNS = (
    ("iteration", "<i8"),
    ("best_fitness_so_far", "<f8"),
    ("mean_fitness", "<f8"),
    ("vortex_count", "<i8"),
    ("eliminations_triggered", "|b1"),
    ("non_finite_evals", "<i8"),
)


def digest(report) -> tuple:
    """(repr(best_fitness), evaluations, iterations, sha256 of position and trace)."""
    h = hashlib.sha256(np.ascontiguousarray(report.best_position, dtype="<f8").tobytes())
    for column, dtype in TRACE_COLUMNS:
        h.update(np.ascontiguousarray(getattr(report.trace, column), dtype=dtype).tobytes())
    return repr(report.best_fitness), report.evaluations, report.iterations, h.hexdigest()


def run_case(function, dimension, kwargs):
    return run(VoaConfig(**kwargs), _objective(function, dimension))


# Recorded with the engine before its iteration glue was cut.
GOLDEN = {
    "booth": ("0.0", 15435, 300,
        "acc416dd3491a861cb3032832bc291f9dd36204d8882ede7f0c34edf21203510"),
    "beale": ("0.0", 15418, 300,
        "70fba51c86f146a4e5e66963501fc052e02ff3a78b8abe59c7cc53e6d4f39f12"),
    "goldstein_price": ("2.999999999999918", 15417, 300,
        "2d1c6719c96e953da829b45f7486f1c3ff772698af99311b87d88351dedc0104"),
    "mccormick": ("-1.9132229549810367", 15592, 300,
        "872ac413e1b9034a4c54f454507fc6f3b1de763853130f8b88b656b8712e2782"),
    "three_hump_camel": ("2.815557968984125e-132", 15463, 300,
        "ce983cf5cc7c9b24910aa08212beef8ceb9d3f361c7fb6da2c67572397ee77de"),
    "sphere_d10": ("1.6614244395880125e-07", 13239, 200,
        "128311d6e96f805029b69c591fe0be916861373297f08add51882687aa1d8a58"),
    "sphere_d30": ("1568.6729489442287", 11482, 150,
        "df6b196c7d2c4b70db42f30dce321c9c972a5d74d8671463b3c725e563e38e77"),
    "rosenbrock_d10": ("680.4861808056003", 11646, 200,
        "1bcd58eca6bf610eb09eb9935079981e3bac2cb0de63ce460b1b062d7eb81c3d"),
    "rosenbrock_d30": ("7947708.979084444", 10601, 150,
        "90f9fa3a1de285a333af81267e79e6f380d5511ec3f79b7cf4bb908a27a25b20"),
    "target_stop": ("1.0288691304921427e-09", 1232, 21,
        "68de5146f638978aafe56d2b3b5564025194ab8a473ef4ba43c948fd543cacd7"),
    "small_swarm": ("0.909183645759551", 7199, 300,
        "9286bf43862a5ef13b9e123a45a5dd7084d0cb167669e74d353bb0801fddf474"),
    "kicked_vorticity": ("2.999999999999913", 15556, 300,
        "ee6bcf52236e7b7c32aec2ba12d5d69e10599551723f91727d6d6fae5be19f69"),
    "non_finite": ("0.0", 15258, 300,
        "a135113005173b7b5c7f955e6c84f84e6a83422282b73ee9ed72f73f8001b4be"),
}


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_output_matches_golden(case):
    _, function, dimension, kwargs = next(c for c in CASES if c[0] == case)
    assert digest(run_case(function, dimension, kwargs)) == GOLDEN[case]


def test_cases_cover_the_intended_behaviour():
    reports = {c[0]: run_case(*c[1:]) for c in CASES
               if c[0] in ("target_stop", "non_finite", "small_swarm")}
    assert reports["target_stop"].iterations < 300
    assert reports["non_finite"].trace.non_finite_evals.sum() > 0
    assert not reports["small_swarm"].trace.eliminations_triggered.all()
