"""The one hypothesis strategy for generated matrix programs.

Every property claimed for *any* program draws from :func:`matrix_programs`
-- numpy and SystemML equality, traffic <= prediction, the estimator's bound,
the planner and lint invariants, greedy >= optimum, the cost table, the
coalesce skip -- so no suite misses an operator class another one draws."""

import operator

import numpy as np
from hypothesis import strategies as st

from repro.lang.program import ProgramBuilder

#: ``l.T @ l``, ``l @ r.T``, cell-wise ops, a scalar multiply, an element-wise
#: unary, a row sum and a scalar ``sum`` aggregate.
CELLWISE = {"add": operator.add, "subtract": operator.sub, "multiply": operator.mul}
KINDS = ("gram", "matmul_t", *CELLWISE, "scalar", "unary", "rowsum", "sum")
UNARY_FUNCS = ("abs", "sigmoid", "exp")
DENSITIES = (0.1, 0.2, 0.5, 0.6, 1.0)
LOAD_DENSITY = st.sampled_from(DENSITIES)


@st.composite
def matrix_programs(draw, max_ops=6, with_inputs=False):
    """1 to ``max_ops`` operators over 1 to 3 ``m x n`` loads (``2 <= m, n
    <= 10``), each reading matrices made before it and named after its kind
    (a unary after its function); with ``with_inputs``, ``(program, input
    arrays)``.  Each entry of an input is nonzero with the load's drawn
    density; the load declares the *measured* sparsity, as the paper's
    estimator takes it pre-computed offline (Section 5.1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    pb, inputs, pool = ProgramBuilder(), {}, []

    def pick(fits=lambda shape: True):
        return draw(st.sampled_from([h for h in pool if fits(pb.shape_of(h.name))]))

    for index in range(draw(st.integers(1, 3))):
        density = draw(LOAD_DENSITY)
        array = inputs[f"I{index}"] = rng.random((m, n))
        array[rng.random((m, n)) > density] = 0.0
        pool.append(pb.load(f"I{index}", (m, n), sparsity=np.count_nonzero(array) / array.size))
    for index in range(draw(st.integers(1, max_ops))):
        name, left = draw(st.sampled_from(KINDS)), pick()
        shape = pb.shape_of(left.name)
        if name == "sum":
            pb.scalar(f"sum{index}", left.sum())
            continue
        if name == "gram":
            expr = left.T @ left
        elif name == "matmul_t":
            expr = left @ pick(lambda other: other[1] == shape[1]).T
        elif name in CELLWISE:
            expr = CELLWISE[name](left, pick(lambda other: other == shape))
        elif name == "scalar":
            expr = left * draw(st.floats(-2, 2, allow_nan=False))
        elif name == "unary":
            name = draw(st.sampled_from(UNARY_FUNCS))
            expr = getattr(left, name)()
        else:
            expr = left.row_sums()
        pool.append(pb.assign(f"{name}{index}", expr))
    pb.output(pool[-1])
    return (pb.build(), inputs) if with_inputs else pb.build()
