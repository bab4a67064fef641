"""Names that code outside the package relies on.

The benchmark's tracer (`lrubench/spans.py`) swaps the functions
`lrusim.trajectory` looks up, `solve_ivp` among them, and
`numpy.linalg.eig`, for recording wrappers. A rename there, or an eig
imported by name, breaks the traced benchmark run without failing any
physics test.

`solve_ivp` is not imported with `lrusim.trajectory`: the module
`__getattr__` resolves it on first access and caches it there, and
`solve_master_dense` looks it up on the module at call time. It must stay
patchable as `lrusim.trajectory.solve_ivp`, which
`test_oracle_looks_up_solve_ivp_when_called` checks.

No linter runs on the package, so `test_every_import_is_used` stands in
for one: a name a module imports and never uses is a leftover. The only
imports allowed to go unused are `__future__` features, the names
`lrusim.__init__` re-exports in `__all__`, and the names the tracer swaps
on `lrusim.trajectory`. Likewise `test_every_definition_is_referenced`: a
module-level function, class or constant of the package, or a method or
property of one of its classes, that no code of the package, its tests or
the benchmark names is an orphan. And
`test_no_numpy2_only_function`: pyproject.toml accepts numpy 1.24, so the
package may call no function that numpy 2.0 added.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lrusim
import lrusim.trajectory

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "lrubench" / "spans.py"
PACKAGE = Path(lrusim.__file__).resolve().parent


def module_constant(path: Path, name: str):
    """A literal assigned at module level, read without importing the module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


def test_traced_trajectory_names_exist():
    names = module_constant(SPANS, "TRAJECTORY_NAMES")
    assert names
    missing = [name for name in names if not hasattr(lrusim.trajectory, name)]
    assert not missing


def test_public_names_resolve():
    missing = [name for name in lrusim.__all__ if not hasattr(lrusim, name)]
    assert not missing


def test_ensemble_looks_up_eig_when_called(monkeypatch):
    shapes = []
    eig = np.linalg.eig

    def recording_eig(matrices):
        shapes.append(np.shape(matrices))
        return eig(matrices)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    config = lrusim.SimulationConfig(
        lattice=lrusim.LatticeSpec(2, 0.0, 10.0, 1.0),
        channel=lrusim.ResetChannel("dissipation", 0.5),
        t_max=1.0, dt=0.1, n_trajectories=4,
    )
    lrusim.run_ensemble(config)
    # one call per chunk, in the N <= 2 sector of ket2 (6 of 9 states); at
    # W = 0 the chunk's trajectories share one no-jump Hamiltonian
    assert shapes == [(1, 6, 6)]


def test_oracle_looks_up_solve_ivp_when_called(monkeypatch):
    sizes = []
    solve_ivp = lrusim.trajectory.solve_ivp

    def recording_solve_ivp(fun, t_span, y0, **kwargs):
        sizes.append(np.size(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(lrusim.trajectory, "solve_ivp", recording_solve_ivp)
    config = lrusim.SimulationConfig(
        lattice=lrusim.LatticeSpec(4, 0.0, 10.0, 1.0),
        channel=lrusim.ResetChannel("random_feedback", 1.0),
        t_max=0.5, dt=0.01, n_trajectories=1,
        noise=lrusim.NoiseModel(0.01, 0.01), observable_stride=10,
    )
    lrusim.solve_master_dense(config)
    # one integration of the density over the N <= 2 sector of ket2 (15 of 81 states)
    assert sizes == [15 * 15]


def test_ensemble_draws_jumps_and_measurements_with_sample_jump(monkeypatch):
    operator_counts = []
    sample_jump = lrusim.trajectory.sample_jump

    def recording_sample_jump(table, amplitudes, draws):
        operator_counts.append(len(table.dst))
        return sample_jump(table, amplitudes, draws)

    monkeypatch.setattr(lrusim.trajectory, "sample_jump", recording_sample_jump)
    config = lrusim.SimulationConfig(
        lattice=lrusim.LatticeSpec(2, 0.0, 10.0, 1.0),
        channel=lrusim.ResetChannel("periodic_feedback", 1.0),
        t_max=4.0, dt=0.05, n_trajectories=8, noise=lrusim.NoiseModel(relaxation_rate=0.5),
    )
    lrusim.run_ensemble(config)
    # the three reset Kraus operators for measurements, and the two
    # relaxation jumps sqrt(gamma) a_l of an L = 2 chain
    assert set(operator_counts) == {3, 2}
    # random feedback's K_1, K_2 and Q join the relaxation jumps in one table
    operator_counts.clear()
    lrusim.run_ensemble(replace(config, channel=lrusim.ResetChannel("random_feedback", 1.0)))
    assert set(operator_counts) == {5}


def unused_imports(path: Path) -> set[str]:
    """Names a module imports, outside `__future__`, that none of its code reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_used(path):
    allowed = {
        "__init__": set(lrusim.__all__),
        "trajectory": set(module_constant(SPANS, "TRAJECTORY_NAMES")),
    }
    assert unused_imports(path) - allowed.get(path.stem, set()) == set()


def definitions(source: str) -> set[str]:
    """Module-level functions, classes and assigned names of a module, and the
    methods and properties of its classes as `Class.name`, outside dunders."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
    return {name for name in names if not name.rsplit(".", 1)[-1].startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Names a file reads, attributes it looks up, names it imports, and its `__all__`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return names


def unreferenced(source: str, referenced: set[str]) -> set[str]:
    """The `definitions` of `source` whose name is not in `referenced`."""
    return {name for name in definitions(source) if name.rsplit(".", 1)[-1] not in referenced}


def test_every_definition_is_referenced():
    referenced = set().union(*(referenced_names(path.read_text())
                               for folder in ("src", "tests", "lrubench")
                               for path in (ROOT / folder).rglob("*.py")))
    orphans = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
               for name in unreferenced(path.read_text(), referenced)}
    assert orphans == set()


def test_definition_check_finds_an_orphaned_method():
    source = (
        "class Engine:\n"
        "    def __init__(self):\n        self.step()\n"
        "    def step(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def left_behind(self):\n        pass\n"
        "Engine()\n"
    )
    assert unreferenced(source, referenced_names(source)) == {"Engine.left_behind"}


#: Functions that numpy 2.0 added, by full name; `numpy.astype` is the
#: function, not the ndarray method numpy 1.24 has too.
NUMPY2_ONLY = {"numpy.matvec", "numpy.vecmat", "numpy.vecdot", "numpy.linalg.vecdot",
               "numpy.unstack", "numpy.cumulative_sum", "numpy.astype"}


def numpy2_only_uses(source: str) -> set[str]:
    """The `NUMPY2_ONLY` names that `source` imports or looks up on a numpy module."""
    tree = ast.parse(source)
    modules = {}  # local name -> the numpy module or name it binds
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    # `import numpy.linalg` binds numpy, `import numpy.linalg as la` la
                    modules[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                used.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in modules:
                used.add(".".join([modules[node.id], *reversed(attrs)]))
    return used & NUMPY2_ONLY


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_numpy2_only_function(path):
    assert numpy2_only_uses(path.read_text()) == set()


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nnp.vecdot(a, b)", {"numpy.vecdot"}),
    ("import numpy\nnumpy.linalg.vecdot(a, b)", {"numpy.linalg.vecdot"}),
    ("from numpy import linalg as la\nla.vecdot(a, b)", {"numpy.linalg.vecdot"}),
    ("from numpy import cumulative_sum", {"numpy.cumulative_sum"}),
    ("import numpy as np\nnp.astype(x, float)", {"numpy.astype"}),
    ("import numpy as np\nnp.zeros(3).astype(float)\nx.astype(int)", set()),
])
def test_numpy2_check_finds_each_form(source, found):
    assert numpy2_only_uses(source) == found
