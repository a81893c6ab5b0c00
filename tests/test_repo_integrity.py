"""Repository integrity guards: docs, benchmark registry, examples stay in
sync with the code."""

import ast
import pathlib
import re


REPO = pathlib.Path(__file__).resolve().parent.parent


class TestBenchmarkRegistry:
    def test_run_all_maps_to_existing_files(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "run_all", REPO / "benchmarks" / "run_all.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, filename in module.EXPERIMENTS.items():
            assert (REPO / "benchmarks" / filename).exists(), (name, filename)

    def test_every_bench_file_is_registered(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "run_all", REPO / "benchmarks" / "run_all.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        registered = set(module.EXPERIMENTS.values())
        on_disk = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        assert on_disk == registered

    def test_every_bench_uses_the_benchmark_fixture(self):
        """`--benchmark-only` skips tests without the fixture; a bench that
        silently never runs is worse than a failing one."""
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                    args = [a.arg for a in node.args.args]
                    assert "benchmark" in args, f"{path.name}::{node.name}"


class TestDocumentation:
    def test_readme_python_blocks_compile(self):
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks, "README should contain python examples"
        for block in blocks:
            compile(block, "<readme>", "exec")

    def test_design_mentions_every_bench(self):
        design = (REPO / "DESIGN.md").read_text()
        for path in (REPO / "benchmarks").glob("bench_fig*.py"):
            assert path.name in design, path.name

    def test_experiments_covers_every_figure_and_table(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for artefact in ("Figure 6", "Figure 7", "Figure 8", "Figure 9(a)",
                         "Figure 9(b)", "Figure 10(a,b)", "Figure 10(c,d)",
                         "Table 4"):
            assert artefact in experiments, artefact

    def test_paper_mapping_links_exist(self):
        mapping = (REPO / "docs" / "paper_mapping.md").read_text()
        for module_path in re.findall(r"`repro\.([a-z0-9_.]+)`", mapping):
            candidate = REPO / "src" / "repro" / (module_path.replace(".", "/") + ".py")
            package = REPO / "src" / "repro" / module_path.replace(".", "/")
            attribute_host = (
                REPO / "src" / "repro" / (module_path.rsplit(".", 1)[0].replace(".", "/") + ".py")
            )
            assert (
                candidate.exists() or package.exists() or attribute_host.exists()
            ), module_path


class TestExamples:
    def test_examples_directory_contents(self):
        examples = REPO / "examples"
        scripts = list(examples.glob("*.py"))
        assert len(scripts) >= 5
        assert (examples / "quickstart.py").exists()
        for script in scripts:
            compile(script.read_text(), str(script), "exec")

    def test_dml_scripts_parse(self):
        from repro.lang.dml import parse_program

        for script in (REPO / "examples").glob("*.dml"):
            program = parse_program(script.read_text())
            assert program.outputs or program.scalar_outputs, script.name


class TestOneCostModel:
    """A plan step is priced in ``repro/core/cost.py`` and nowhere else."""

    #: The predicted ledger charge ``(N - 1) x |A|`` ...
    CHARGE = re.compile(r"\(\s*(?:\w+\.)?(?:num_)?workers\s*-\s*1\s*\)\s*\*")
    #: ... and the work formula ``2 m k n x density``.
    WORK = re.compile(r"\b2(?:\.0)?(?:\s*\*\s*[\w.]+){4}")
    EXEMPT = {"core/cost.py"}

    def _sources(self):
        root = REPO / "src" / "repro"
        for package in ("core", "planopt", "lint", "serve", "elastic"):
            yield from sorted((root / package).glob("*.py"))

    def test_the_charge_and_work_formulas_are_spelled_once(self):
        root = REPO / "src" / "repro"
        hits = [
            f"{path.relative_to(root)}:{number}: {line.strip()}"
            for path in self._sources()
            if str(path.relative_to(root)) not in self.EXEMPT
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if self.CHARGE.search(line) or self.WORK.search(line)
        ]
        assert not hits, "\n".join(hits)
        cost = (root / "core" / "cost.py").read_text()
        assert self.WORK.search(cost), "the gate's own pattern went stale"

    def test_only_the_cost_model_builds_a_size_estimator(self):
        """Every size a plan decision or the memory bound reads comes from a
        :class:`~repro.core.cost.CostModel`'s one estimator."""
        root = REPO / "src" / "repro"
        hits = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if "SizeEstimator(" in path.read_text()
        )
        assert hits == ["core/cost.py"]

    def test_one_job_builds_a_handful_of_size_estimators(self, monkeypatch):
        """The estimator of a frozen program used to be rebuilt once per
        optimizer trial: 55 times for this job."""
        from repro import ClusterConfig, DMacSession
        from repro.core.estimator import SizeEstimator
        from repro.programs.registry import WorkloadParams, build_workload

        built = []
        init = SizeEstimator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SizeEstimator, "__init__", counting)
        load = build_workload("svd", WorkloadParams(scale=3e-3, rank=5))
        with DMacSession(
            ClusterConfig(num_workers=4), optimize=True, lint="error", verify="error"
        ) as session:
            session.run(load.program, load.inputs)
        assert 0 < len(built) <= 8


class TestSettings:
    """The settable values of the config objects and main entry points.

    Each one here has a caller outside ``tests/`` that sets it; a value
    only a test sets is a constant of the module that reads it."""

    PINNED = {
        "ClusterConfig": (
            "num_workers", "threads_per_worker", "block_size", "inplace",
            "memory_limit_bytes", "clock", "max_concurrent_stages", "recovery",
            "cache_limit_bytes", "elastic", "elastic_seed",
        ),
        "ClockConfig": (
            "network_bytes_per_sec", "dense_flops_per_sec",
            "sparse_flops_per_sec", "disk_bytes_per_sec", "latency_per_stage_sec",
        ),
        "RecoveryConfig": (
            "max_stage_attempts", "checkpoint_every", "speculation_multiplier",
        ),
        "ServiceConfig": (
            "tenants", "cluster", "policy", "plan_cache_entries", "optimize", "seed",
        ),
        "DMacSession.__init__": (
            "config", "pull_up_broadcast", "re_assignment", "estimation_mode",
            "lint", "verify", "optimize", "trace",
        ),
        "DMacSession.run": ("program", "inputs", "plan", "trace", "chaos"),
        "PlanExecutor.__init__": ("context", "block_size", "backend"),
        "optimize_plan": (
            "plan", "num_workers", "estimation_mode", "passes", "counters",
        ),
    }

    def test_no_setting_appears_unnoticed(self):
        import dataclasses
        import inspect

        from repro.config import ClockConfig, ClusterConfig, RecoveryConfig
        from repro.planopt.pipeline import optimize_plan
        from repro.runtime.executor import PlanExecutor
        from repro.serve.service import ServiceConfig
        from repro.session import DMacSession

        found = {
            config.__name__: tuple(field.name for field in dataclasses.fields(config))
            for config in (ClusterConfig, ClockConfig, RecoveryConfig, ServiceConfig)
        }
        for function in (
            DMacSession.__init__, DMacSession.run, PlanExecutor.__init__, optimize_plan
        ):
            parameters = inspect.signature(function).parameters
            found[function.__qualname__] = tuple(p for p in parameters if p != "self")
        assert found == self.PINNED, (
            "a setting was added or removed: a new one needs a caller outside "
            "tests/ that sets it (else make it a module constant); then update "
            "PINNED"
        )


class TestExports:
    """Every package's export table, name by name.

    Each name here has a reader outside ``tests/`` (``python
    scripts/check_exports.py`` holds the rule); a name only tests read is
    imported from the module that defines it."""

    PINNED = {
        "repro": (
            "BlockError", "ChaosEngine", "ClockConfig", "ClusterConfig", "ClusterContext",
            "ClusterError", "DMacPlanner", "DMacSession", "DistributedMatrix", "ExecutionError",
            "ExecutionResult", "FaultSpecError", "MatrixProgram", "MemoryLimitExceeded", "Plan",
            "PlanError", "ProgramBuilder", "ProgramError", "RecoveryConfig", "ReproError", "Scheme",
            "SchemeError", "ShapeError", "ShuffleBlockLost", "StageExecutionError", "StageGraph",
            "TransferFault", "TranslationValidationError", "VerificationError", "WorkerCrashed",
            "__version__", "parse_fault_spec",
        ),
        "repro.baselines": (
            "SystemMLSExecutor", "SystemRunResult", "run_local", "run_scalapack_matmul",
            "run_scidb_matmul",
        ),
        "repro.blocks": (
            "Block", "CELLWISE_OPS", "CSCBlock", "CoordinateMatrix", "DenseBlock", "accumulate",
            "as_matrix", "assemble", "block_col_sums", "block_extent", "block_row_sums",
            "block_sq_sum", "block_sum", "cellwise", "cellwise_flops", "dense_block_model_bytes",
            "grid_shape", "matmul", "matmul_flops", "matrix_model_bytes", "max_block_size",
            "scalar_op", "split",
        ),
        "repro.core": (
            "AggregateStep", "BROADCAST_DEPENDENCIES", "CellwiseStep", "DMacPlanner",
            "DependencyType", "ExecutionResult", "ExtendedStep", "MATMUL_STRATEGIES", "MatMulStep",
            "MatrixInstance", "Plan", "PlanExecutor", "RowAggStep", "SOURCE_STRATEGY",
            "ScalarComputeStep", "ScalarMatrixStep", "SizeEstimator", "SourceStep", "Step",
            "Strategy", "UnaryStep", "candidate_strategies", "classify", "dependency_cost",
            "evaluate_scalar", "explain", "format_statistics", "is_communication", "optimal_cost",
            "output_cost", "paper_cost_of_plan", "plan_to_dot", "schedule_stages",
        ),
        "repro.datasets": (
            "PAPER_GRAPHS", "dense_random", "graph_edges", "graph_like", "netflix_like",
            "row_normalize", "sparse_random",
        ),
        "repro.elastic": (
            "CostCappedPolicy", "ElasticEvent", "ElasticPool", "ElasticSpecError", "FixedPolicy",
            "LoadTrackingPolicy", "Transition", "parse_elastic_spec", "timeline_spec",
        ),
        "repro.faults": (
            "ChaosEngine", "CheckpointStore", "FaultClause", "LineageTracker", "RecoveryLog",
            "build_chaos_report", "format_chaos_report", "parse_fault_spec", "summarise_recovery",
        ),
        "repro.frontend": (
            "CarriedVar", "ConditionSpec", "FrontendError", "Matrix", "MatrixInput", "Scalar",
            "StagedOutput", "StagedProgram", "matrix_input", "matrix_program",
        ),
        "repro.lang": (
            "AggExpr", "AggregateOp", "CellwiseExpr", "CellwiseOp", "FullOp", "LoadOp",
            "MatMulExpr", "MatMulOp", "MatrixExpr", "MatrixProgram", "MatrixRefExpr", "OpNode",
            "Operand", "ProgramBuilder", "RandomOp", "RowAggExpr", "RowAggOp", "ScalarBinaryExpr",
            "ScalarComputeOp", "ScalarConst", "ScalarExpr", "ScalarMatrixExpr", "ScalarMatrixOp",
            "ScalarRefExpr", "ScalarUnaryExpr", "TransposeExpr",
        ),
        "repro.lint": (
            "Diagnostic", "LintContext", "LintInput", "LintReport", "RULES", "Severity",
            "format_selftest", "lint_plan", "lint_python_file", "plan_for", "run_selftest",
        ),
        "repro.localexec": (
            "BlockKey", "BlockTask", "Grid", "LocalEngine", "MemoryTracker",
            "MultiplyAccumulateTask", "MultiplyTask", "TaskResult", "buffered_matmul_tasks",
            "inplace_matmul_tasks",
        ),
        "repro.matrix": (
            "DistributedMatrix", "Scheme", "bmm", "broadcast_matrix", "cellwise_op", "col_sums",
            "contain", "cpmm", "equal_b", "equal_rc", "extract", "local_transpose", "matrix_sq_sum",
            "matrix_sum", "oppose", "repartition", "rmm1", "rmm2", "row_sums", "scalar_op_matrix",
        ),
        "repro.planopt": (
            "AppliedRewrite", "DEFAULT_PASSES", "clone_plan", "coalesce_repartitions",
            "eliminate_common_steps", "eliminate_dead_steps", "optimize_plan",
            "pin_loop_invariants", "plan_structural_hash", "program_fingerprint",
            "replicate_products", "step_structural_key", "structural_key",
        ),
        "repro.programs": (
            "build_cf_program", "build_gnmf_program", "build_jacobi_program",
            "build_linreg_program", "build_logreg_program", "build_pagerank_program",
            "build_power_iteration_program", "build_ridge_program", "build_svd_program",
            "singular_values", "split_system",
        ),
        "repro.rdd": (
            "ClusterContext", "ColumnPartitioner", "CommunicationLedger", "HashPartitioner",
            "Partitioner", "RDD", "RECORD_OVERHEAD_BYTES", "RowPartitioner", "SimulatedClock",
            "TimeBreakdown", "model_sizeof", "shuffle",
        ),
        "repro.runtime": (
            "ExecutionResult", "ExecutionState", "OPERATORS", "PlanExecutor", "ResourceManager",
            "SchedulerReport", "SimulatedBackend", "StageGraph", "StageMeter", "StageNode",
            "StageScheduler", "StageTiming", "active_meter", "evaluate_scalar", "metered",
            "spec_for", "spec_for_op",
        ),
        "repro.serve": (
            "Accountant", "AdmissionController", "AdmissionPolicy", "CacheEntry", "Decision",
            "JobRecord", "JobSpec", "MatrixService", "PlanCache", "RemoteClient", "ServiceClient",
            "ServiceConfig", "StrideScheduler", "TenantSpec", "build_report", "parse_batch",
            "render_report", "run_batch", "serve_forever",
        ),
        "repro.trace": (
            "PointEvent", "Span", "TraceCollector", "active_tracer", "assert_reconciled",
            "current_stage", "format_summary", "install_tracer", "reconcile", "to_chrome_trace",
            "to_json_dict",
        ),
        "repro.verify": (
            "Certificate", "DOUBLE_PUBLISH", "Hazard", "MemoryPrediction", "READ_BEFORE_PUBLISH",
            "ancestor_masks", "certify", "find_hazards", "predict_peak_memory", "value_summary",
            "verify_plan",
        ),
    }

    def test_no_export_appears_unnoticed(self):
        import importlib

        found = {
            package: tuple(importlib.import_module(package).__all__)
            for package in sorted(
                ".".join(("repro", *init.parent.relative_to(REPO / "src" / "repro").parts))
                for init in (REPO / "src" / "repro").rglob("__init__.py")
            )
        }
        assert found == self.PINNED, (
            "an export was added or removed: a new one needs a reader outside "
            "tests/ (scripts/check_exports.py), else import it from its module; "
            "then update PINNED"
        )


class TestCheckScript:
    def test_the_summary_line_names_the_gates_that_did_not_run(self):
        """ruff and mypy cannot be installed in every sandbox; a run that
        skipped them must not end with the same line as one that ran them."""
        script = (REPO / "scripts" / "check.sh").read_text()
        for tool in ("ruff", "mypy"):
            assert f"skipped+=({tool})" in script
        assert 'echo "All checks passed (SKIPPED, not installed: ${skipped[*]})."' in script
        unconditional = [
            line for line in script.splitlines() if line == 'echo "All checks passed."'
        ]
        assert not unconditional  # only inside the nothing-was-skipped branch


class TestStaticHygiene:
    """What ruff's F401 would say about every module of ``src/repro``
    (``__init__`` re-exports aside) and mypy's disallow-untyped-defs about
    the packages rewritten since the tools went missing (neither is
    installed here)."""

    SRC = REPO / "src" / "repro"
    MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    ANNOTATED = sorted(
        [
            *(SRC / "planopt").glob("*.py"),
            *(SRC / "verify").glob("*.py"),
            *(SRC / "lint").glob("*.py"),
            SRC / "core" / "defuse.py",
            SRC / "runtime" / "graph.py",
            SRC / "_exports.py",
        ]
    )

    @staticmethod
    def references(tree):
        """The modules each import names, one list per import statement or
        export-table entry: a package ``__init__``'s ``"Name": "pkg.mod"``
        reads as ``from pkg.mod import Name``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "_EXPORTS" for target in node.targets
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    module, __, name = value.value.partition(":")
                    yield [module, f"{module}.{name or key.value}"]

    def test_no_module_imports_a_name_it_never_uses(self):
        assert len(self.MODULES) > 100
        for path in self.MODULES:
            tree = ast.parse(path.read_text())
            imported = {
                (alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            exported = {
                element.value
                for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                for element in node.value.elts
            }
            assert imported <= used | exported, (
                str(path.relative_to(self.SRC)),
                sorted(imported - used - exported),
            )

    def test_every_subpackage_is_reached_from_outside_itself(self):
        """An island -- a subpackage that only its own tests, benches or
        examples import -- fails here: every subpackage of ``src/repro`` is
        imported by at least one module of ``src/repro`` outside it."""
        subpackages = sorted(
            ".".join(("repro", *init.parent.relative_to(self.SRC).parts))
            for init in self.SRC.rglob("__init__.py")
            if init.parent != self.SRC
        )
        assert len(subpackages) > 10
        reached = set()
        for path in self.SRC.rglob("*.py"):
            parts = path.relative_to(self.SRC.parent).with_suffix("").parts
            importer = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            for targets in self.references(ast.parse(path.read_text())):
                reached.update(
                    package
                    for package in subpackages
                    for target in targets
                    if (target == package or target.startswith(package + "."))
                    and not (importer == package or importer.startswith(package + "."))
                )
        assert sorted(set(subpackages) - reached) == []

    def test_only_the_backend_calls_the_physical_primitives(self):
        """Every plan, DMac's or a baseline's, runs through the backend: no
        module but ``runtime/backend.py`` (and the package's export table)
        imports ``repro.matrix.primitives``, so no second interpreter can
        call the operators itself."""
        importers = set()
        for path in self.SRC.rglob("*.py"):
            for modules in self.references(ast.parse(path.read_text())):
                if "repro.matrix.primitives" in modules:
                    importers.add(path.relative_to(self.SRC).as_posix())
        assert sorted(importers) == ["matrix/__init__.py", "runtime/backend.py"]

    def test_typed_modules_import_no_name_through_an_export_table(self):
        """A name a package serves from its export table comes out of the
        table's ``__getattr__``, which mypy types ``Any``.  So a module that
        ``pyproject.toml`` has mypy check strictly imports every name from
        the module that defines it, and so does every importer of the
        coordinate input form (``repro.blocks.coordinate``)."""
        import fnmatch

        config = (REPO / "pyproject.toml").read_text()
        overrides = config[config.index("[[tool.mypy.overrides]]") : config.index("[tool.ruff]")]
        strict = re.findall(r'"(repro[\w.*]*)"', overrides)
        assert "repro.runtime.backend" in strict
        packages = {
            ".".join(("repro", *init.parent.relative_to(self.SRC).parts))
            for init in self.SRC.rglob("__init__.py")
        }
        through_tables = {}
        for path in self.MODULES:
            module = ".".join(path.relative_to(self.SRC.parent).with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in packages:
                    package_dir = self.SRC.parent.joinpath(*node.module.split("."))
                    through_tables.setdefault(module, set()).update(
                        alias.name
                        for alias in node.names
                        if not (package_dir / f"{alias.name}.py").exists()
                        and not (package_dir / alias.name / "__init__.py").exists()
                    )
        typed = {
            module: sorted(names)
            for module, names in through_tables.items()
            if names and any(fnmatch.fnmatchcase(module, pattern) for pattern in strict)
        }
        assert typed == {}
        coordinate = {
            module: sorted(names & {"CoordinateMatrix", "as_matrix"})
            for module, names in through_tables.items()
            if names & {"CoordinateMatrix", "as_matrix"}
        }
        assert coordinate == {}

    def test_dml_reaches_a_program_only_through_the_frontend(self):
        """DML is a surface, not a second compiler: its parser emits Python
        ``ast`` and the frontend lowers it, so ``lang/dml.py`` never builds
        expressions or drives a ``ProgramBuilder`` itself."""
        tree = ast.parse((self.SRC / "lang" / "dml.py").read_text())
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
                names.update(alias.name for alias in node.names)
        assert "repro.lang.expr" not in modules
        assert "ProgramBuilder" not in names
        assert "repro.frontend.compiler" in modules

    def test_every_public_function_is_annotated(self):
        """Nested functions count too: ``export_table`` returns its
        ``__getattr__`` and ``__dir__`` as closures."""

        def functions(body, owner=""):
            for node in body:
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    yield from functions(node.body, f"{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    private = node.name.startswith("_") and not node.name.startswith("__")
                    if not private:
                        yield owner + node.name, node
                    yield from functions(node.body, f"{owner}{node.name}.")

        for path in self.ANNOTATED:
            for name, node in functions(ast.parse(path.read_text()).body):
                arguments = node.args
                named = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                named += [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
                bare = [a.arg for a in named if a.annotation is None and a.arg not in ("self", "cls")]
                assert not bare, (path.name, name, bare)
                assert node.returns is not None, (path.name, name)
