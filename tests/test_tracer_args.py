"""The benchmark tracer's counters read the arguments of the ``mobsim``
functions they wrap by position; each position must name the parameter the
counter means, so a signature change cannot silently break a counter."""

import ast
import importlib
import importlib.util
import inspect
import os
import textwrap

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    """``perfbench/tracer.py`` as a module, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped(tracer, span):
    """The function or method the tracer wraps under the span name ``span``,
    say ``nn.attention.graph_attention`` or ``discriminator.classify``."""
    layer = max((name for name in tracer.LAYERS if span.startswith(name + ".")), key=len)
    attr = span[len(layer) + 1:]
    module = importlib.import_module(tracer.LAYERS[layer])
    found = [fn for _, owner, name, fn in tracer._public_callables(module, layer)
             if name == attr]
    assert len(found) == 1, f"{span}: {len(found)} wrapped callables named {attr!r}"
    return found[0]


def _arg_reads(counter):
    """``(index, name)`` of every ``_arg(args, kwargs, index, "name")`` call,
    sorted."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))
    return sorted((call.args[2].value, call.args[3].value) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg")


TRACER_MODULE = _tracer()


@pytest.mark.parametrize("span", sorted(TRACER_MODULE.COUNTERS))
def test_counter_reads_name_the_wrapped_parameters(span):
    fn = _wrapped(TRACER_MODULE, span)
    parameters = list(inspect.signature(fn).parameters)
    for index, name in _arg_reads(TRACER_MODULE.COUNTERS[span]):
        assert index < len(parameters) and parameters[index] == name, (
            f"{span}: the counter reads argument {index} as {name!r}, "
            f"but {fn.__qualname__} takes {parameters}")


def test_the_tracer_reads_arguments_by_position():
    # The check above is not vacuous: the counters do read by position.
    reads = {span: _arg_reads(counter) for span, counter in TRACER_MODULE.COUNTERS.items()}
    assert reads["nn.attention.graph_attention"] == [(0, "h"), (2, "heads")]
    assert reads["generator.complete_batch"] == [(2, "prefix_ids"), (3, "length")]
