"""Every name a module of ewaldkit imports is read in that module or
re-exported through its __all__: an import nothing reads is dead code.
Every private helper is read, and so is every public name and every public
member of a public class, by the package, a demo, the benchmark or the
README, each name resolved by the scope that reads it and each member read
through a receiver that can own it.  The package imports no standard
module beyond a fixed set when it is imported.  No module imports a
sibling inside a function, and the module-level imports form no cycle.
Every helper the README names exists.  And no module but the integer gate
and the text parsers converts to int with a loop of its own."""

import ast
import builtins
import importlib
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ewaldkit")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _unread_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read | exported)


def test_the_scan_sees_an_unread_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n")
    assert _unread_imports(tree) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    assert _unread_imports(tree) == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unread_helpers(trees):
    """(module, name) for each private module-level function, class or
    constant of the modules (module name -> tree) that no statement other
    than its own definition reads.  A bare name read in a module is the
    module's own definition, else the one it imports from a sibling; an
    attribute read counts for every module that defines the name."""
    defs = {}  # (module, name) -> the defining statement
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                if _is_private(name):
                    defs[module, name] = node
    read = set()
    for module, tree in trees.items():
        source = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    source[alias.asname or alias.name] = (node.module, alias.name)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = (module, node.id) if (module, node.id) in defs else source.get(node.id)
                    if key in defs and defs[key] is not top:
                        read.add(key)
                elif isinstance(node, ast.Attribute):
                    read.update(k for k, d in defs.items() if k[1] == node.attr and d is not top)
    return sorted(set(defs) - read)


def test_the_scan_sees_an_unread_helper():
    trees = {
        "a": ast.parse("_A = 1\n_B = _A\ndef _f():\n    return _f()\nclass _C: pass\n__x__ = 0\n"),
        "b": ast.parse("from .a import _C\nfrom .c import _f\n_C()\n_f()\n"),
    }
    assert _unread_helpers(trees) == [("a", "_B"), ("a", "_f")]


def _package_trees():
    trees = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module[:-3]] = ast.parse(fh.read(), module)
    return trees


def test_every_private_helper_is_read():
    assert _unread_helpers(_package_trees()) == []


def _public_names(trees):
    """(module, name) for each name a module of trees (module name -> tree)
    lists in its __all__, and each the package's __init__ imports from it."""
    public = set()
    for module, tree in trees.items():
        for node in tree.body:
            if module == "__init__" and isinstance(node, ast.ImportFrom) and node.level == 1:
                public.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                public.update((module, name) for name in ast.literal_eval(node.value))
    return public


SPAN = r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`"  # a README code span naming `name` or `head.name`


def _public_members(trees, public):
    """(module, "Class.member") -> the member's statement, for each public
    method, property and dataclass field of the public classes of trees.  A
    class whose body lists its own fields (dataclasses.fields) reads every
    field, so only its methods count."""
    members = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and (module, node.name) in public:
                listed = any(getattr(n, "id", None) == "fields" for n in ast.walk(node))
                for item in node.body:
                    if listed and isinstance(item, ast.AnnAssign):
                        continue
                    for name in _defined(item):
                        if not name.startswith("_"):
                            members[module, node.name + "." + name] = item
    return members


# the builtin types, whose values own no member of the package; type(x),
# super() and object can stand for a class of the package
BUILTIN_TYPES = frozenset(n for n, v in vars(builtins).items() if isinstance(v, type)) - {"object", "super", "type"}
LITERALS = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _receivers(tree, module, env, classes, modules):
    """(attribute, owners) for each attribute read in tree: owners is the
    set of public classes, as (module, name), that the attribute's receiver
    can be or be an instance of, or None where it can be any.  env maps the
    names tree binds at module level to their owners, classes each public
    class name to its key, and modules holds the package's submodules.

    self, the first parameter of a method, owns its class alone.  A module
    (a name bound by an import, or an attribute named after a submodule that
    no public member shares, as lib.displace) and a builtin value (a builtin
    type, its call or a literal) own none.  A public class and its call own
    that class.  A parameter annotated with a class owns that class, or none
    outside the package, unless its function binds the name again."""
    found = []

    def owners(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in classes:
                return frozenset([classes[node.attr]])
            return frozenset() if node.attr in modules else None
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in BUILTIN_TYPES | set(classes):
            return owners(node.func, env)
        return frozenset() if isinstance(node, LITERALS) else None

    def annotated(node, env):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return owners(node, env) if getattr(node, "id", getattr(node, "attr", None)) in classes else frozenset()
        return None

    def visit(node, env, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                params = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                stored = {n.id for n in ast.walk(child) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
                inner = {k: v for k, v in env.items() if k not in stored | {a.arg for a in params}}
                for a in params:
                    if a.annotation is not None and a.arg not in stored:
                        inner[a.arg] = annotated(a.annotation, env)
                static = any(getattr(d, "id", None) == "staticmethod" for d in getattr(child, "decorator_list", ()))
                if owner and child.args.args and not static and child.args.args[0].arg not in stored:
                    inner[child.args.args[0].arg] = frozenset([owner])
                visit(child, inner, None)
            else:
                if isinstance(child, ast.Attribute):
                    found.append((child, owners(child.value, env)))
                visit(child, env, (module, child.name) if isinstance(child, ast.ClassDef) else None)

    visit(tree, env, None)
    return found


def _unread_public_names(trees, readers, readme):
    """The public names of the modules (module name -> tree) that nothing
    reads: each name a module lists in its __all__ or the package's __init__
    imports, as (module, name), and each public member of a public class,
    as (module, "Class.member").

    A module-level name is read by a statement other than its own
    definition, in a module other than __init__ (which only re-exports) or
    in one of the reader trees (the demos and the benchmark): as a bare
    name, resolved through the reading module's imports the way
    _unread_helpers resolves one, or as an attribute qualified by its
    module or the package (polytope.x, lib.polytope.x, ewaldkit.x).  A
    local variable or a method of the same name reads nothing.  A member is
    read by an attribute of its name outside its own body whose receiver
    can own it (_receivers).  A code span of the readme reads
    `module.name`, `Class.member`, and, bare, the module-level names that
    no public member shares."""
    public = _public_names(trees)
    package = {}  # name -> (module, name), for each name __init__ imports
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            package.update((alias.name, (node.module, alias.name)) for alias in node.names)
    defs = {(m, name): top for m, tree in trees.items() if m != "__init__" for top in tree.body for name in _defined(top)}
    members = _public_members(trees, public)
    member_names = {key[1].partition(".")[2] for key in members}
    classes = {key[1]: key for key in public if isinstance(defs.get(key), ast.ClassDef)}
    modules = set(trees) - {"__init__"} - member_names
    read = set()
    for span in re.findall(SPAN, readme):
        head, _, name = span.rpartition(".")
        read.add((head, name))
        if not head and name not in member_names:
            read.update(key for key in public if key[1] == name)
        read.update(key for key in members if key[1] == span)
    attributes = []
    sources = [(m, t) for m, t in trees.items() if m != "__init__"] + [(None, t) for t in readers]
    for module, tree in sources:
        source = {}  # the names the reading module imports from the package
        env = dict.fromkeys(BUILTIN_TYPES - {name for top in tree.body for name in _defined(top)}, frozenset())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                env.update((alias.asname or alias.name.partition(".")[0], frozenset()) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.level == 1:
                        source[name] = (node.module, alias.name)
                    elif node.module == "ewaldkit":
                        source[name] = package.get(alias.name)
                        if alias.name in trees:
                            env[name] = frozenset()  # a submodule
                    elif (node.module or "").startswith("ewaldkit."):
                        source[name] = (node.module.partition(".")[2], alias.name)
        for name, key in list(source.items()) + [(k[1], k) for k in defs if k[0] == module]:
            if key in classes.values():
                env[name] = frozenset([key])
        for top in tree.body:
            for node in ast.walk(top):
                key = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = (module, node.id) if (module, node.id) in defs else source.get(node.id)
                elif isinstance(node, ast.Attribute):
                    head = getattr(node.value, "id", getattr(node.value, "attr", None))
                    key = package.get(node.attr) if head == "ewaldkit" else (head, node.attr)
                if key in public and defs.get(key) is not top:
                    read.add(key)
        attributes += _receivers(tree, module, env, classes, modules)
    for key, item in members.items():
        owner, _, name = key[1].partition(".")
        inside = set(ast.walk(item))
        if any(
            node.attr == name and node not in inside and (found is None or (key[0], owner) in found)
            for node, found in attributes
        ):
            read.add(key)
    return sorted((public | set(members)) - read)


def test_the_scan_sees_an_unread_public_name():
    trees = {
        "__init__": ast.parse("from .a import f, g, m\n"),
        "a": ast.parse(
            "__all__ = ['f', 'g', 'h', 'k', 'C']\n"
            "def f():\n    return f()\n"
            "def g(): pass\ndef h(): pass\ndef k(): pass\ndef m(): pass\n"
            "class C: pass\nc = C()\n"
        ),
        "b": ast.parse("from .a import g\ng()\n"),
    }
    readers = [ast.parse("import ewaldkit\newaldkit.a.h()\n")]
    assert _unread_public_names(trees, readers, "`a.k` names k, and f and `m()` are prose") == [("a", "f"), ("a", "m")]


def test_a_local_or_a_method_of_the_same_name_reads_nothing():
    trees = {
        "__init__": ast.parse("from .a import f, g, h, k\n"),
        "a": ast.parse(
            "__all__ = ['f', 'g', 'h', 'k', 'C', 'R']\n"
            "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n"
            "class C:\n"
            "    size: int\n    unread: int\n"
            "    def f(self):\n        return self.size\n"
            "    def g(self): pass\n"
            "    def again(self):\n        return self.again()\n"
            "class R:\n    flag: int\n    def rows(self):\n        return fields(self)\n"
        ),
        # a local h, C's method f and a bare span of C's method name g read
        # no module-level name; the span `C.g` reads the method
        "b": ast.parse("from .a import C, R\ndef use():\n    h = C()\n    return h.f(), R().rows()\n"),
    }
    readers = [ast.parse("from ewaldkit import a\na.h()\n")]
    assert _unread_public_names(trees, readers, "`g`, `k` and `C.g`") == [
        ("a", "C.again"), ("a", "C.unread"), ("a", "f"), ("a", "g"),
    ]


def _unread_members(a, b="", readme=""):
    """The unread members of the classes of a synthetic module a, which a
    module b of the same package may read."""
    trees = {"__init__": ast.parse(""), "a": ast.parse(a), "b": ast.parse(b)}
    return [key[1] for key in _unread_public_names(trees, [], readme) if "." in key[1]]


def test_a_read_through_self_counts_for_its_own_class_alone():
    a = (
        "__all__ = ['P', 'D']\n"
        "class P:\n    parent: int\n"
        "class D:\n    parent: int\n    def normals(self):\n        return self.parent\n"
    )
    assert _unread_members(a, "from .a import D\nD(1).normals()\n") == ["P.parent"]


def test_a_read_through_a_module_or_a_builtin_value_counts_for_no_member():
    a = "__all__ = ['H']\nclass H:\n    def translate(self, t): pass\n    def shift(self, t): pass\n"
    b = (
        "import families as F\nfrom ewaldkit import a\n"
        "def run(lib, p, flags):\n"
        "    F.translate(p, 1), lib.a.translate, a.translate\n"
        "    bytes(flags).translate(b''), 'x'.translate({})\n"
        "    return p.shift(1)\n"
    )
    assert _unread_members(a, b) == ["H.translate"]


def test_an_annotated_parameter_reads_its_own_class_alone():
    a = "__all__ = ['S', 'T']\nclass S:\n    face: int\n    size: int\nclass T:\n    face: int\n    size: int\n"
    b = (
        "import argparse\nfrom .a import S, T\n"
        "def check(args: argparse.Namespace, t: T):\n    return args.face, t.face, t.size\n"
        # a parameter bound again may hold any class
        "def rebound(s: T):\n    s = S()\n    return s.size\n"
    )
    assert _unread_members(a, b) == ["S.face"]


def test_a_readme_span_reads_a_member_only_as_class_dot_member():
    a = "__all__ = ['S', 'T']\nclass S:\n    face: int\n    ridges: int\nclass T:\n    basis: int\n"
    assert _unread_members(a, readme="`face`, `x.ridges` and `T.basis`") == ["S.face", "S.ridges"]


def test_every_public_name_is_read():
    # a name the package exports and nothing reads belongs in tests/, or in
    # the README with the paper statement it implements
    readers = []
    for directory in ("demos", "perfbench"):
        for name in sorted(os.listdir(os.path.join(ROOT, directory))):
            if name.endswith(".py"):
                with open(os.path.join(ROOT, directory, name), encoding="utf-8") as fh:
                    readers.append(ast.parse(fh.read(), name))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert _unread_public_names(_package_trees(), readers, readme) == []


# the modules the package imports when it is imported: each is loaded on
# every start of the command line and of a benchmark set-up, so a new one
# is a cost every start pays (concurrent.futures loads only inside batch
# --jobs)
MODULE_IMPORTS = {
    "__future__", "argparse", "dataclasses", "fractions", "functools", "inspect", "itertools",
    "json", "math", "operator", "os", "sys", "time",
}


def _module_level_imports(tree):
    """The top-level names of the modules tree imports outside its functions."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_the_package_imports_no_new_module_when_imported():
    tree = ast.parse("import os.path\nfrom a.b import c\nfrom . import d\nclass E:\n    import json\ndef f():\n    import g\n")
    assert _module_level_imports(tree) == {"os", "a", "json"}
    found = set().union(*map(_module_level_imports, _package_trees().values()))
    assert found <= MODULE_IMPORTS, sorted(found - MODULE_IMPORTS)


def _sibling_imports(trees):
    """(graph, inner) for the modules (module name -> tree): graph maps each
    module to the siblings it imports at module level, and inner lists
    (module, line, sibling) for each relative import made inside a
    function."""
    graph, inner = {}, []
    for module, tree in trees.items():
        top = set(tree.body)
        graph[module] = {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node not in top:
                inner.append((module, node.lineno, node.module))
    return graph, sorted(inner)


def _import_cycle(graph):
    """The modules around one cycle of graph (module -> the siblings it
    imports), the first repeated last, or None when graph has no cycle."""
    seen = set()

    def visit(module, path):
        if module in path:
            return path[path.index(module) :] + [module]
        if module in seen:
            return None  # explored before, and no cycle runs through it
        seen.add(module)
        for sibling in sorted(graph.get(module, ())):
            found = visit(sibling, path + [module])
            if found:
                return found
        return None

    for module in sorted(graph):
        found = visit(module, [])
        if found:
            return found
    return None


def test_no_function_imports_a_sibling_and_no_module_import_cycles():
    graph, inner = _sibling_imports({
        "a": ast.parse("from .b import f\ndef g():\n    from .c import h\n"),
        "b": ast.parse("from .c import h\n"),
        "c": ast.parse("from .a import g\n"),
    })
    assert inner == [("a", 3, "c")]
    assert _import_cycle(graph) == ["a", "b", "c", "a"]
    assert _import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
    trees = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module[:-3]] = ast.parse(fh.read(), module)
    graph, inner = _sibling_imports(trees)
    assert inner == []
    assert _import_cycle(graph) is None


def test_fileio_binds_every_call_the_benchmark_traces():
    # perfbench's traced run wraps fileio's binding of each name in its
    # FILEIO_CALLS, read here with ast so that perfbench is not imported
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "FILEIO_CALLS" for t in node.targets)
    ]
    fileio = importlib.import_module("ewaldkit.fileio")
    assert names and all(hasattr(fileio, name) for name in names)
    for name in names:
        fn = getattr(fileio, name)
        assert fn.__name__ == name and getattr(sys.modules[fn.__module__], name) is fn, name


def _stale_mentions(text, modules):
    """The code spans of text that name a helper no module defines: each
    `module.name` whose module is one of ewaldkit's, looked up in that
    module itself, and each bare private `_name`, looked up in every
    module.  File names such as `intlinalg.py` are skipped."""
    stale = []
    for span in sorted(set(re.findall(SPAN, text))):
        head, _, name = span.rpartition(".")
        if name == "py":
            continue
        if head:
            if head in modules and not hasattr(modules[head], name):
                stale.append(span)
        elif _is_private(name) and not any(hasattr(m, name) for m in modules.values()):
            stale.append(span)
    return stale


def test_no_package_attribute_shadows_a_submodule():
    # from ewaldkit import displace gives the module ewaldkit.displace: the
    # package re-exports no function under a submodule's name
    package = importlib.import_module("ewaldkit")
    for module in MODULES:
        name = module[:-3]
        submodule = importlib.import_module("ewaldkit." + name)
        assert getattr(package, name) is submodule, name


def test_the_readme_names_only_helpers_that_exist():
    modules = {}
    for module in MODULES:
        importlib.import_module("ewaldkit." + module[:-3])
        modules[module[:-3]] = sys.modules["ewaldkit." + module[:-3]]
    assert _stale_mentions("`displace._class_chart` `_bits` `intlinalg.py` `p.size`", modules) == []
    assert _stale_mentions("`displace._gone` `_gone` `classify.is_smooth`", modules) == ["_gone", "displace._gone"]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        assert _stale_mentions(fh.read(), modules) == []


def test_cli_reads_its_limits_and_refusals_from_fileio():
    # cli imports no private helper of any module but fileio, and every
    # limit the --allow-large help names is one it imports from fileio
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "cli.py")
    imported = {
        alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert [name for name, module in imported.items() if _is_private(name) and module != "fileio"] == []
    (help_text,) = [
        kw.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args and getattr(node.args[0], "value", None) == "--allow-large"
        for kw in node.keywords
        if kw.arg == "help"
    ]
    limits = {n.id for n in ast.walk(help_text) if isinstance(n, ast.Name) and n.id.startswith("MAX_")}
    assert len(limits) == 5 and all(imported.get(name) == "fileio" for name in limits)


# the modules that may convert to int themselves: the integer gate, and the
# text parsers, where int("1.5") already raises
INT_CONVERTERS = {"intlinalg.py", "fileio.py", "cli.py"}


def _private_int_loops(tree):
    """The lines of tree that convert to int by a loop of their own: an
    int(...) call on a bare loop or comprehension variable, or map(int, ...)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            targets = [g.target for g in node.generators]
        else:
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
                if node.args and getattr(node.args[0], "id", None) == "int":
                    found.add(node.lineno)
            continue
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "int"
                and len(call.args) == 1
                and getattr(call.args[0], "id", None) in names
            ):
                found.add(call.lineno)
    return sorted(found)


def test_the_scan_sees_a_private_int_loop():
    tree = ast.parse(
        "a = tuple(int(x) for x in v)\n"
        "for i, y in v:\n    w.append(int(y))\n"
        "b = list(map(int, v))\n"
        "c = [int(i == j) for j in v]\n"
        "d = int(n)\n"
        "e = [[int(x * s) for x in r] for r in m]\n"
    )
    assert _private_int_loops(tree) == [1, 3, 4]


def test_only_the_gate_and_the_parsers_convert_to_int():
    for module in sorted(set(MODULES) - INT_CONVERTERS) + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            assert _private_int_loops(ast.parse(fh.read(), module)) == [], module
