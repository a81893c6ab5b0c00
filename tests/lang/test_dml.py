"""Tests for the DML-style script parser."""

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.datasets import sparse_random
from repro.errors import ProgramError
from repro.frontend import FrontendError
from repro.lang.dml import load_names, parse_program
from repro.lang.program import CellwiseOp, MatMulOp, UnaryMatrixOp


def run_script(script, inputs=None, block=8, workers=4):
    program = parse_program(script)
    session = DMacSession(ClusterConfig(workers, 1, block_size=block))
    bound = {}
    names = load_names(program)
    for user, array in (inputs or {}).items():
        bound[names[user]] = array
    return program, session.run(program, bound)


class TestBasics:
    def test_simple_pipeline(self, rng):
        array = rng.random((12, 12))
        program, result = run_script(
            "A = load(12, 12)\nB = A %*% A + A\noutput(B)", {"A": array}
        )
        np.testing.assert_allclose(
            result.matrices[program.bindings["B"]], array @ array + array, atol=1e-9
        )

    def test_comments_and_whitespace(self):
        program = parse_program(
            "# leading comment\n\nA = random(4, 4)  # trailing\noutput(A)\n"
        )
        assert program.outputs

    def test_r_precedence_matmul_binds_tighter(self, rng):
        """`A %*% B * 2` must parse as `(A %*% B) * 2`."""
        array = rng.random((6, 6))
        program, result = run_script(
            "A = load(6, 6)\nC = A %*% A * 2\noutput(C)", {"A": array}
        )
        np.testing.assert_allclose(
            result.matrices[program.bindings["C"]], (array @ array) * 2, atol=1e-9
        )

    def test_unary_minus(self, rng):
        array = rng.random((4, 4))
        program, result = run_script(
            "A = load(4, 4)\nB = -A + A\noutput(B)", {"A": array}
        )
        np.testing.assert_allclose(result.matrices[program.bindings["B"]], 0 * array)

    def test_transpose_function(self, rng):
        array = rng.random((4, 6))
        program, result = run_script(
            "A = load(4, 6)\nG = t(A) %*% A\noutput(G)", {"A": array}
        )
        np.testing.assert_allclose(
            result.matrices[program.bindings["G"]], array.T @ array, atol=1e-9
        )

    def test_scalar_assignment_and_use(self, rng):
        array = rng.random((5, 5))
        program, result = run_script(
            "A = load(5, 5)\ns = sum(A)\nB = A * (1 / s)\noutput(B)\noutputScalar(s)",
            {"A": array},
        )
        assert result.scalars["s"] == pytest.approx(array.sum())
        np.testing.assert_allclose(
            result.matrices[program.bindings["B"]], array / array.sum(), atol=1e-12
        )

    def test_plain_float_constants(self):
        program = parse_program("A = random(3, 3)\nB = A * (2 + 3 * 4)\noutput(B)")
        local = run_local(program)
        expected = np.random.default_rng(0).random((3, 3)) * 14
        np.testing.assert_allclose(local.matrices[program.bindings["B"]], expected)


class TestFunctions:
    def test_unary_functions_parse(self):
        program = parse_program(
            "A = random(4, 4)\nB = sigmoid(exp(abs(A)))\noutput(B)"
        )
        funcs = [op.func for op in program.ops if isinstance(op, UnaryMatrixOp)]
        assert funcs == ["abs", "exp", "sigmoid"]

    def test_row_col_sums(self, rng):
        array = rng.random((6, 4))
        program, result = run_script(
            "A = load(6, 4)\nR = rowSums(A)\nC = colSums(A)\noutput(R)\noutput(C)",
            {"A": array},
        )
        np.testing.assert_allclose(
            result.matrices[program.bindings["R"]], array.sum(1, keepdims=True)
        )
        np.testing.assert_allclose(
            result.matrices[program.bindings["C"]], array.sum(0, keepdims=True)
        )

    def test_norm2_and_value(self, rng):
        array = rng.random((5, 1))
        program, result = run_script(
            "p = load(5, 1)\nn = norm2(p)\nv = value(t(p) %*% p)\n"
            "outputScalar(n)\noutputScalar(v)",
            {"p": array},
        )
        assert result.scalars["n"] == pytest.approx(np.linalg.norm(array))
        assert result.scalars["v"] == pytest.approx(float((array.T @ array)[0, 0]))

    def test_full_source(self):
        program = parse_program("D = full(2, 3, 0.5)\nE = D * 2\noutput(E)")
        local = run_local(program)
        np.testing.assert_allclose(
            local.matrices[program.bindings["E"]], np.ones((2, 3))
        )

    def test_random_seed_keyword(self):
        first = parse_program("A = random(4, 4, seed=7)\noutput(A)")
        second = parse_program("A = random(4, 4, seed=7)\noutput(A)")
        np.testing.assert_array_equal(
            run_local(first).matrices[first.bindings["A"]],
            run_local(second).matrices[second.bindings["A"]],
        )


class TestLoops:
    def test_loop_unrolls(self):
        program = parse_program(
            "A = random(4, 4)\nfor (i in 1:3) {\n  A = A %*% A\n}\noutput(A)"
        )
        assert sum(isinstance(op, MatMulOp) for op in program.ops) == 3
        # `A = random(...)` aliases; the three updates create A, A@2, A@3
        assert program.bindings["A"] == "A@3"

    def test_loop_variable_usable_as_scalar(self):
        program = parse_program(
            "A = random(2, 2)\nfor (i in 1:2) {\n  A = A + i\n}\noutput(A)"
        )
        local = run_local(program)
        expected = np.random.default_rng(0).random((2, 2)) + 1 + 2
        np.testing.assert_allclose(local.matrices[program.bindings["A"]], expected)

    def test_nested_loops(self):
        program = parse_program(
            "A = random(2, 2)\nfor (i in 1:2) {\n  for (j in 1:2) {\n"
            "    A = A * 2\n  }\n}\noutput(A)"
        )
        assert sum(isinstance(op, CellwiseOp) for op in program.ops) == 0
        assert program.bindings["A"] == "A@4"  # alias + 4 updates: A..A@4

    def test_empty_range_rejected(self):
        with pytest.raises(ProgramError):
            parse_program("A = random(2, 2)\nfor (i in 3:1) { A = A * 2 }\noutput(A)")


class TestErrors:
    def test_unknown_variable(self):
        with pytest.raises(ProgramError, match="unknown variable"):
            parse_program("B = A %*% A")

    def test_unknown_function(self):
        with pytest.raises(ProgramError, match="unknown function"):
            parse_program("A = random(2,2)\nB = cholesky(A)")

    def test_matmul_needs_matrices(self):
        with pytest.raises(ProgramError, match="matrix operands"):
            parse_program("A = random(2,2)\ns = sum(A)\nB = s %*% A")

    def test_unexpected_character(self):
        with pytest.raises(ProgramError, match="unexpected character"):
            parse_program("A = random(2,2) $ 3")

    def test_unclosed_loop(self):
        with pytest.raises(ProgramError, match="unclosed"):
            parse_program("A = random(2,2)\nfor (i in 1:2) {\n  A = A * 2\n")

    def test_output_of_scalar_rejected(self):
        with pytest.raises(ProgramError, match="needs a matrix"):
            parse_program("A = random(2,2)\ns = sum(A)\noutput(s)")

    def test_outputscalar_of_matrix_rejected(self):
        with pytest.raises(ProgramError, match=r"output_scalar\(\) needs a computed runtime scalar"):
            parse_program("A = random(2,2)\noutputScalar(A)")

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(ProgramError, match=r"\(<source>:3\)"):
            parse_program("A = random(2,2)\nB = A + A\nC = ghost %*% A")

    @pytest.mark.parametrize(
        "script, line",
        [
            pytest.param("A = random(2,2)\nB = A $ 3", 2, id="tokenizer"),
            pytest.param("A = random(2,2)\n\nB = (A + A\noutput(B)", 4, id="parser"),
            pytest.param("A = random(2,2)\nfor (i in 1:2) {\n  A = A * 2\n", 2, id="unclosed-loop"),
            pytest.param("A = random(2,2)\nB = cholesky(A)", 2, id="compiler"),
            pytest.param("A = random(2,2)\ns = sum(A)\noutput(s)", 3, id="output-check"),
            # the builder's own checks used to surface with no line at all
            pytest.param("A = random(2, 3)\nB = A %*% A\noutput(B)", 2, id="builder"),
        ],
    )
    def test_every_diagnostic_is_a_frontend_error_with_file_and_line(self, script, line):
        with pytest.raises(FrontendError) as info:
            parse_program(script, filename="dir/bad.dml")
        assert (info.value.filename, info.value.line) == ("dir/bad.dml", line)
        assert f"(bad.dml:{line})" in str(info.value)


class TestEquivalenceWithBuilderPrograms:
    def test_script_gnmf_matches_builder_gnmf(self):
        from repro.programs import build_gnmf_program

        script = """
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
        script_program = parse_program(script)
        builder_program = build_gnmf_program((48, 32), 0.2, factors=4, iterations=2)
        data = sparse_random(48, 32, 0.2, seed=5, ensure_coverage=True)
        script_result = run_local(
            script_program, {load_names(script_program)["V"]: data}
        )
        builder_result = run_local(builder_program, {"V": data})
        np.testing.assert_allclose(
            script_result.matrices[script_program.bindings["H"]],
            builder_result.matrices[builder_program.bindings["H"]],
            atol=1e-9,
        )
