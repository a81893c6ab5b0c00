"""Golden programs of the DML script language.

``golden_dml.json`` was captured on the commit *before* DML stopped
building programs itself and started lowering through the frontend's
statement compiler.  It pins the serialised program (``program_to_json``)
of both ``examples/*.dml`` and of every script the test suite parses
successfully, plus the corners that lowering has to get exactly right:
aliases of matrices, scalars and constants, sources nested in expressions
and inside loops, and a transpose as a whole statement.

Never regenerate the file to make a change pass.  To capture it (on a
commit whose DML compiler is meant to be the reference)::

    PYTHONPATH=src python tests/lang/test_dml_golden.py
"""

import json
import pathlib

import pytest

from repro.lang.dml import parse_program
from repro.lang.serialize import program_to_json

GOLDEN = pathlib.Path(__file__).with_name("golden_dml.json")
EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

GNMF_SCRIPT = """
        V = load(48, 32, sparsity=0.2)
        W = random(48, 4)
        H = random(4, 32, seed=1)
        for (i in 1:2) {
            H = H * (t(W) %*% V) / (t(W) %*% W %*% H)
            W = W * (V %*% t(H)) / (W %*% H %*% t(H))
        }
        output(W)
        output(H)
        """

#: name -> script source
SCRIPTS = {
    # tests/lang/test_dml.py
    "simple_pipeline": "A = load(12, 12)\nB = A %*% A + A\noutput(B)",
    "comments": "# leading comment\n\nA = random(4, 4)  # trailing\noutput(A)\n",
    "precedence": "A = load(6, 6)\nC = A %*% A * 2\noutput(C)",
    "unary_minus": "A = load(4, 4)\nB = -A + A\noutput(B)",
    "transpose_call": "A = load(4, 6)\nG = t(A) %*% A\noutput(G)",
    "scalar_use": "A = load(5, 5)\ns = sum(A)\nB = A * (1 / s)\noutput(B)\noutputScalar(s)",
    "float_constants": "A = random(3, 3)\nB = A * (2 + 3 * 4)\noutput(B)",
    "unary_functions": "A = random(4, 4)\nB = sigmoid(exp(abs(A)))\noutput(B)",
    "row_col_sums": "A = load(6, 4)\nR = rowSums(A)\nC = colSums(A)\noutput(R)\noutput(C)",
    "norm2_value": (
        "p = load(5, 1)\nn = norm2(p)\nv = value(t(p) %*% p)\n"
        "outputScalar(n)\noutputScalar(v)"
    ),
    "full_source": "D = full(2, 3, 0.5)\nE = D * 2\noutput(E)",
    "random_seed": "A = random(4, 4, seed=7)\noutput(A)",
    "loop_unrolls": "A = random(4, 4)\nfor (i in 1:3) {\n  A = A %*% A\n}\noutput(A)",
    "loop_variable": "A = random(2, 2)\nfor (i in 1:2) {\n  A = A + i\n}\noutput(A)",
    "nested_loops": (
        "A = random(2, 2)\nfor (i in 1:2) {\n  for (j in 1:2) {\n"
        "    A = A * 2\n  }\n}\noutput(A)"
    ),
    "gnmf_equivalence": GNMF_SCRIPT,
    # tests/lint/test_cli_lint.py, tests/test_cli.py, tests/matrix/test_io.py
    "cli_lint_clean": "A = random(20, 30)\nB = A %*% t(A)\noutput(B)\n",
    "cli_stages": "A = load(16, 16)\nB = A %*% A\noutput(B)\n",
    "cli_script_npy": "A = load(8, 8)\nB = A %*% A\noutput(B)\n",
    "cli_script_npz": "A = load(6, 6)\nB = A + A\noutput(B)\n",
    "io_no_dense": (
        f"A = load(20000, 20000, sparsity={50_000 / 20_000**2})\n"
        "x = full(20000, 1, 1.0)\ny = A %*% x\ns = sum(y)\noutputScalar(s)\n"
    ),
    # the corners of lowering
    "aliases": (
        "A = random(3, 3)\nB = A\nC = B + A\nn = sum(C)\nm = n\nk = 2\nj = k\n"
        "D = C * j * m\noutput(D)\noutput(B)\noutputScalar(m)"
    ),
    "nested_sources": (
        "A = random(4, 4) + full(4, 4, 1.0) %*% load(4, 4, sparsity=0.5)\n"
        "B = t(random(4, 4, seed=3)) * A\noutput(B)"
    ),
    "sources_in_loops": (
        "A = full(3, 3, 1.0)\nfor (i in 1:3) {\n  A = A + random(3, 3, seed=i)\n"
        "  B = load(3, 3)\n}\nC = A + B\noutput(C)"
    ),
    "transpose_statement": "A = random(3, 5)\nB = t(A)\nC = B %*% A\noutput(B)\noutput(C)",
    "scalar_arithmetic": (
        "A = load(4, 4)\ns = sum(A)\nq = sqsum(A) / s - 2 * s\nr = -q\n"
        "B = sqrt(A) * r + s\noutputScalar(r)\noutput(B)"
    ),
    "more_unaries": (
        "A = random(3, 3)\nB = reciprocal(log(sign(sqrt(A))))\nC = exp(B) / abs(B)\noutput(C)"
    ),
    "loop_arithmetic": "A = random(2, 2)\nfor (i in 2:4) {\n  A = A * (i / 2) - i\n}\noutput(A)",
    "scalar_times_matrix": "A = random(3, 3)\ns = sum(A)\nB = s * A + 2 * A\noutput(B)",
    "lint_chain": (
        "A = random(64, 64)\nX = random(64, 64, seed=2)\nB = A + X\nC = B * X\n"
        "output(B)\noutput(C)"
    ),
}


def sources() -> dict[str, str]:
    scripts = {f"examples/{path.name}": path.read_text() for path in sorted(EXAMPLES.glob("*.dml"))}
    scripts.update(SCRIPTS)
    return scripts


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_script_has_a_golden_entry(golden):
    assert len(golden) == len(SCRIPTS) + 2
    assert sorted(golden) == sorted(sources())


@pytest.mark.parametrize("name", sorted(sources()))
def test_the_script_compiles_to_the_pinned_program(golden, name):
    assert program_to_json(parse_program(sources()[name]), indent=1) == golden[name]


if __name__ == "__main__":
    records = {name: program_to_json(parse_program(text), indent=1) for name, text in sources().items()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
