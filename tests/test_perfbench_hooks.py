import importlib
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_every_perfbench_hook_target_resolves():
    # perfbench's traced run wraps each HOOKS target by name; a renamed or
    # removed one drops that layer's metrics from the benchmark's result.
    # The tracer is read, not imported, and each target is looked up as
    # Tracer.install does: a module attribute, or an entry in a class __dict__
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    hooks = tracer["HOOKS"]
    unresolved = []
    for hook, (mod_name, attr) in hooks.items():
        module = importlib.import_module(mod_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            found = cls is not None and name in vars(cls)
        else:
            found = getattr(module, name, None) is not None
        if not found:
            unresolved.append(f"{hook}: {mod_name}.{attr}")
    assert len(hooks) == 20
    assert unresolved == []
