"""What a solve loads: ``scipy.optimize`` is imported by the calls that run
an LP, a minimizer or a root finder, and by nothing else.  Each check runs
in a fresh interpreter, since the test run has long since loaded it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys

import dualitylab
import dualitylab.cli
from dualitylab import (
    UtilityField,
    build_tree,
    dual_superrep_price,
    optimality_relations_check,
    pair_solutions,
    solve_dual,
    superreplication_price,
)


def tree(periods, moves):
    # One asset; every node has one child per (price factor, probability).
    nodes, prices, clock = [{"id": 0, "t": 0, "parent": None}], {0: [1.0]}, {0: 0.0}
    level = [0]
    for t in range(1, periods + 1):
        nxt = []
        for pid in level:
            for move, prob in moves:
                k = len(nodes)
                nodes.append({"id": k, "t": t, "parent": pid, "prob": prob})
                prices[k] = [prices[pid][0] * move]
                clock[k] = 0.25
                nxt.append(k)
        level = nxt
    return build_tree({"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0,
                       "n_active": 1})


binomial = tree(4, [(2.0, 0.6), (0.5, 0.4)])
trinomial = [(2.0, 0.5), (1.0, 0.3), (0.5, 0.2)]
for field in (UtilityField(family="power", gamma=0.5), UtilityField(family="log")):
    primal, dual, y = pair_solutions(binomial, field, 1.0)
    assert optimality_relations_check(primal, dual, x=1.0, y=y).passed
claim = [1.0] * binomial.n_nodes
superreplication_price(binomial, claim)
dual_superrep_price(binomial, claim)
solve_dual(tree(2, trinomial), UtilityField(family="log"), 1.0)
assert "scipy.optimize" not in sys.modules, "a solve without an LP loaded scipy.optimize"

one_period = tree(1, trinomial)
claim = [1.0] * one_period.n_nodes
price = superreplication_price(one_period, claim).price
assert "scipy.optimize" in sys.modules
assert abs(price - dual_superrep_price(one_period, claim)) <= 1e-8, price
"""


def test_only_lp_and_minimizer_calls_load_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
