"""Module boundaries that keep one cross-process protocol, one owner of
the channel-blob format, one parser of IPv4 addresses, one way to run
each side (a loop on the calling thread), packets that stay rows on the
network side, pose rows without per-agent records on the physics side,
one check of a channel snapshot, where its decoder reads it off the wire,
a frame codec that carries the channel blob unread, one decode of it,
where the network side applies it, numpy loaded only where arrays are
asked for, no device I/O, no imports from the tests, and one public
surface."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosimnet
from cosimnet import scenario, wire

PACKAGE = Path(cosimnet.__file__).parent
BLOB_FORMAT = {"compress_channel_blob", "decompress_channel_blob", "decode_channel_data"}


def parse(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), str(path))


def imported_names(tree: ast.Module):
    """Every dotted name an import statement in `tree` mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def top_level_imports(path: Path) -> set[str]:
    """The top-level module of every import in the file at `path`."""
    tree = ast.parse(path.read_text(), str(path))
    return {name.split(".")[0] for name in imported_names(tree)}


def module_level_imports(path: Path) -> set[str]:
    """The top-level module of every import in the file at `path` that runs
    when the module is imported: every one outside a function body."""
    todo = [ast.parse(path.read_text(), str(path))]
    found = set()
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {name.split(".")[0] for name in imported_names(node)}
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_simulators_import_nothing_from_sync():
    for name in ("physics", "netsim"):
        for imported in imported_names(parse(name)):
            assert "sync" not in imported.split("."), (name, imported)


def test_only_wire_knows_the_channel_blob_format():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "wire":
            continue
        tree = parse(path.stem)
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {name.rsplit(".", 1)[-1] for name in imported_names(tree)}
        assert not used & BLOB_FORMAT, (path.stem, sorted(used & BLOB_FORMAT))


def test_only_wire_parses_ipv4_addresses():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "wire":
            continue
        assert "ipaddress" not in top_level_imports(path), path.stem


def test_only_sync_and_wire_import_socket():
    # sync owns the peer link; wire, which carries no addresses, needs none
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.stem == "sync":
            continue
        assert "socket" not in top_level_imports(path), path.relative_to(PACKAGE)


def test_netsim_builds_no_network_messages():
    tree = parse("netsim")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {name.rsplit(".", 1)[-1] for name in imported_names(tree)}
    assert not used & {"MsgType", "NetworkUpdate"}, sorted(used & {"MsgType", "NetworkUpdate"})


def test_physics_builds_no_per_agent_records():
    # the shipped simulator keeps pose rows; the record-based path it is
    # checked against lives in tests/physics_oracles.py
    tree = parse("physics")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {name.rsplit(".", 1)[-1] for name in imported_names(tree)}
    assert not used & {"Pose", "PathDetails"}, sorted(used & {"Pose", "PathDetails"})


def calls_by_function(tree: ast.Module, callee: str):
    """The name of the innermost function around each call of `callee`,
    by plain or attribute name, in `tree` (None at module level)."""

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == callee:
                yield function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(tree, None)


def test_only_the_decoder_checks_a_channel_snapshot():
    callers = [
        (path.stem, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in calls_by_function(parse(path.stem), "validate_channel_data")
    ]
    assert callers == [("wire", "decode_channel_data")]
    # and no snapshot carries a mark that lets a check be skipped: neither
    # an attribute nor a name handed to setattr, getattr or __slots__
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path.stem)
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        found = names & {"_checked", "checked"}
        assert not found, (path.stem, sorted(found))


def called_names(node: ast.AST) -> set[str]:
    """The plain or attribute name of every call inside `node`."""
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Attribute, ast.Name))
    }


def callers_of(callee: str) -> list[tuple[str, str]]:
    """(module, top-level definition) around each call of `callee` in the
    package, nested functions counted in the definition they are in."""
    return [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parse(path.stem).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and callee in called_names(node)
    ]


def test_the_frame_codec_carries_the_channel_blob_unread():
    blob_readers = {"channel_of", "decode_channel_data", "decompress_channel_blob"}
    functions = {
        node.name: called_names(node)
        for node in parse("wire").body
        if isinstance(node, ast.FunctionDef)
    }
    # everything the frame codec calls, directly or through wire's functions
    reached = set()
    todo = [
        name for name in functions
        if name in ("encode_frame", "decode_frame") or name.startswith(("_encode_", "_decode_"))
    ]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(functions.get(name, ()))
    assert not reached & blob_readers, sorted(reached & blob_readers)
    # one decoder of a blob, and one caller of it: the window that applies it
    assert callers_of("decode_channel_data") == [("wire", "channel_of")]
    assert callers_of("channel_of") == [("net_coord", "run_network_coordinator")]
    # and no message keeps a decoded channel: no module names a `_channel`
    # as a string (for setattr or a __dict__ lookup), and wire not at all.
    # The netsim's own `_channel`, its last applied snapshot, is no message's.
    for path in sorted(PACKAGE.glob("*.py")):
        names = set()
        for node in ast.walk(parse(path.stem)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif path.stem == "wire" and isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif path.stem == "wire" and isinstance(node, ast.Name):
                names.add(node.id)
        assert "_channel" not in names, path.stem


def test_no_module_imports_from_tests():
    for path in sorted(PACKAGE.rglob("*.py")):
        assert "tests" not in top_level_imports(path), path.relative_to(PACKAGE)


def test_an_in_process_run_builds_no_network_update(tmp_path, monkeypatch):
    """In process the coordinator hands the netsim its rows and takes rows
    back: a whole patrol run constructs no `NetworkUpdate`."""
    built = []
    init = wire.NetworkUpdate.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(wire.NetworkUpdate, "__init__", counted_init)
    wire.NetworkUpdate(wire.MsgType.END, 0)  # the counter counts
    assert len(built) == 1
    config = scenario.load_scenario(Path(scenario.__file__).parent / "scenarios" / "patrol.json")
    result = scenario.run_scenario(config, tmp_path)
    assert result.net_summary.released_total > 0
    assert len(built) == 1


def test_no_module_imports_numpy_at_top_level():
    # bit errors come from the stdlib generator, the post-run reduction is
    # plain Python, and the array code imports numpy where it runs
    for path in sorted(PACKAGE.rglob("*.py")):
        assert "numpy" not in module_level_imports(path), path.relative_to(PACKAGE)


_RUN = (
    "config = scenario.{load}\n"
    "with tempfile.TemporaryDirectory() as out:\n"
    "    result = scenario.run_scenario(config, out, plots=True{timeline})\n"
    "assert result.net_summary.released_total > 0\n"
)
_STATIC = "load_scenario(bundled / 'static_los_30m.json')"
# per case: what runs before the check that no numpy module is loaded, and
# what runs after it
NUMPY_FREE = {
    "validate": (
        "assert cli.main(['validate', '--scenario', str(bundled / 'patrol.json')]) == 0\n", ""
    ),
    "static": (_RUN.format(load=_STATIC, timeline=""), ""),
    "patrol": (
        _RUN.format(
            load="load_scenario(bundled / 'patrol.json', duration_ns=3_000_000_000)",
            timeline="",
        ),
        "",
    ),
    # 120 pairs x 50 boxes: past VECTOR_MIN_TESTS, yet deferred in process
    "swarm16": (_RUN.format(load="parse_scenario(swarm.generate(7, 250))", timeline=""), ""),
    # a timeline records without numpy, and its columns read as numpy views
    "timeline": (
        _RUN.format(load=_STATIC, timeline=", timeline=True"),
        "t = result.timeline.t\n"
        "assert type(t).__module__ == 'numpy' and t.dtype.name == 'int64', t\n"
        "assert t.tolist() == [s.t for s in result.timeline]\n",
    ),
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_an_in_process_run_leaves_numpy_unloaded(case):
    """`cosimnet validate`, and whole in-process runs with plots, in a fresh
    interpreter, import no `numpy` module."""
    before, after = NUMPY_FREE[case]
    path = os.environ.get("PYTHONPATH")
    src = os.pathsep.join([str(PACKAGE.parent), str(PACKAGE.parent.parent)])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    script = (
        "import sys, tempfile\n"
        "from pathlib import Path\n"
        "from benchmarks import swarm\n"
        "from cosimnet import cli, scenario\n"
        "bundled = Path(scenario.__file__).parent / 'scenarios'\n"
        + before
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        + after
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_module_imports_fcntl():
    for path in sorted(PACKAGE.rglob("*.py")):
        assert "fcntl" not in top_level_imports(path), path.relative_to(PACKAGE)


def test_the_public_surface_is_unchanged():
    assert sorted(cosimnet.__all__) == [
        "ConfigError",
        "DesyncError",
        "ProtocolError",
        "RunResult",
        "ScenarioConfig",
        "SyncError",
        "TransportError",
        "__version__",
        "config_as_dict",
        "load_scenario",
        "parse_scenario",
        "run_scenario",
    ]


def test_no_module_imports_threading_or_queue():
    for path in sorted(PACKAGE.rglob("*.py")):
        imported = top_level_imports(path)
        assert not imported & {"threading", "queue"}, path.relative_to(PACKAGE)
