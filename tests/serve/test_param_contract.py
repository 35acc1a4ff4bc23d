"""Each command's parameter declaration is the served path's contract.

``POST /v1/commands`` validates a request's params against its
command's declaration (:meth:`repro.core.commands.Command.validate`)
before the server makes a handle.  A request the declaration refuses
answers 400 with a message naming the parameter, and consumes no
request id, admission slot or queue position; a request it accepts
runs.  The property test draws params from every registered command's
declaration, then maybe breaks one of them (an unknown key, a wrong
type, NaN, a wrong shape, an out-of-range ``time_range`` or
integer, a missing required key): the answer is 200 or 400 as the
declaration says, never a 5xx.

The declaration is checked against the served data too: a field name
the data lacks or with another component count than the parameter
declares, a physical time (``t_start``/``t_end``/``t_observe``) outside
the times of the levels the request picks, or a ``t_start`` at or after
the end time it must precede, is a 400.  Valid draws keep those times
at their default, since which of them are valid depends on each other
and on the drawn ``time_range``.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commands import default_registry
from repro.core.commands import REQUIRED
from repro.serve.cli import build_serve_app

REGISTRY = default_registry()
TENANT = "t"
#: valid values of the field-name params on the served Engine data.
FIELDS = {"scalar": ["pressure"], "velocity": ["velocity"]}
#: draw ranges of the numeric params: inside each declaration's bound,
#: kept small so a valid run stays cheap.
SPAN = {"max_steps": 40, "n_particles": 4, "batch_cells": 300,
        "max_triangles": 3000, "local_cache_blocks": 8, "max_levels": 4,
        "min_dim": 4, "prefetch_width": 2, "steal_batch": 4}
TIMES = ("t_start", "t_end", "t_observe")


@pytest.fixture(scope="module")
def app():
    app = build_serve_app("engine", workers=2)
    assert app.handle("POST", "/v1/tenants", {"name": TENANT})[0] == 201
    return app


def _levels(app) -> int:
    return app.server.backend.session.source.n_timesteps


def _finite(lo: float = -2.0, hi: float = 2.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _point():
    return st.tuples(_finite(), _finite(), _finite()).map(list)


def _valid(param, n_levels: int):
    """Values the declaration accepts, ``None`` for params a JSON body
    cannot carry or the data decides (see the module docstring)."""
    kind, low = param.kind, param.low
    if not isinstance(kind, str) or param.name in TIMES:
        return None
    if param.choices:
        return st.sampled_from(param.choices)
    if kind == "int":
        lo = int(low or 0)
        return st.integers(lo, lo + SPAN.get(param.name, 4))
    if kind == "float":
        return _finite(0.0, 100.0) if low is not None else _finite()
    if kind == "bool":
        return st.booleans()
    if kind == "field":
        return st.sampled_from(FIELDS[param.name])
    if kind == "fields":
        return st.lists(st.sampled_from(FIELDS["scalar"]), max_size=1)
    if kind == "point":
        return _point()
    if kind == "direction":
        return _point().filter(lambda v: sum(x * x for x in v) > 0.0)
    if kind == "points":
        seed = st.tuples(_finite(-0.6, 0.6), _finite(-0.6, 0.6), _finite(0.3, 1.3))
        return st.lists(seed.map(list), min_size=1, max_size=3)
    if kind == "time_range":
        span = int(low or 1)
        return st.integers(0, n_levels - span).flatmap(
            lambda t0: st.integers(t0 + span, n_levels).map(lambda t1: [t0, t1])
        )
    raise AssertionError(f"no strategy for {param.name}: {kind}")


def _invalid(param, n_levels: int):
    """Values the declaration refuses."""
    kind = param.kind
    bad = [st.just({"x": 1})]  # no kind takes an object
    if kind in ("int", "float"):
        bad.append(st.just("abc"))
        if param.low is not None:
            bad.append(st.just(param.low - 1))
    if kind == "float":
        bad.append(st.sampled_from([math.nan, math.inf]))
    if kind == "int":
        bad.append(st.sampled_from([True, 2.5]))
    if kind in ("str", "field", "bool"):
        bad.append(st.just(7))
    if kind == "field":
        bad.append(st.just("entropy"))
    if kind == "fields":
        bad.append(st.just(["pressure", "entropy"]))
    if kind == "time":
        bad.append(st.sampled_from([-1.0, 99.0]))
    if param.choices:
        bad.append(st.just("no-such-choice"))
    if kind in ("point", "direction"):
        bad.append(st.sampled_from([[1.0, 2.0], [1.0, 2.0, math.nan], "abc"]))
    if kind == "direction":
        bad.append(st.just([0, 0, 0]))
    if kind == "points":
        bad.append(st.sampled_from([[], [[0.1, 0.2]], [0.1, 0.2, 0.3], [[0, 0, math.nan]]]))
    if kind == "time_range":
        bad.append(st.sampled_from([[0], [1, 0], [0, n_levels + 1], [-1, 1], [0.0, 1.0]]))
    return st.one_of(bad)


@st.composite
def requests(draw, n_levels: int):
    """``(command, params, bad)``: ``bad`` names the parameter the
    declaration must refuse, or is ``None`` for a valid request."""
    command = draw(st.sampled_from(REGISTRY.names()))
    declared = REGISTRY.command_class(command).declaration()
    params = {}
    for param in declared.values():
        strategy = _valid(param, n_levels)
        if strategy is None:
            continue
        if param.default is REQUIRED or draw(st.booleans()):
            params[param.name] = draw(strategy)
    fault = draw(st.sampled_from(["none", "none", "value", "unknown", "missing"]))
    if fault == "value":
        name = draw(st.sampled_from(sorted(
            p.name for p in declared.values() if isinstance(p.kind, str)
        )))
        params[name] = draw(_invalid(declared[name], n_levels))
        return command, params, name
    if fault == "unknown":
        params["isovalu"] = 0.0
        return command, params, "isovalu"
    required = [p.name for p in declared.values() if p.default is REQUIRED]
    if fault == "missing" and required:
        name = draw(st.sampled_from(required))
        del params[name]
        return command, params, name
    return command, params, None


def _submit(app, command, params):
    return app.handle("POST", "/v1/commands", {
        "tenant": TENANT, "command": command, "params": params,
    })


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_request_answers_as_its_declaration_says(app, data):
    command, params, bad = data.draw(requests(_levels(app)))
    status, payload = _submit(app, command, params)
    if bad is None:
        assert status == 200, (command, params, payload)
    else:
        assert status == 400, (command, params, payload)
        assert bad in payload["error"]


#: the requests that answered a 500 (or a 200) before params were
#: checked at the door against the declaration and the served data,
#: each with the name its 400 must carry.
MALFORMED = [
    ("iso-dataman", {}, "isovalue"),
    ("warp-core", {"isovalue": 0.0}, "warp-core"),
    ("iso-dataman", {"isovalue": "abc"}, "isovalue"),
    ("pathlines-dataman", {"seeds": [[0.1, 0.2]]}, "seed"),
    ("iso-dataman", {"isovalue": 0.0, "steal_batch": 0}, "steal_batch"),
    ("iso-progressive", {"isovalue": -0.3, "schedule": "level-major"}, "schedule"),
    ("iso-dataman", {"isovalu": -0.3}, "isovalu"),
    ("iso-dataman", {"isovalue": math.nan}, "isovalue"),
    ("iso-dataman", {"isovalue": 0.0, "scalar": "entropy"}, "entropy"),
    ("pathlines-dataman", {"seeds": [[0.1, 0.2, 0.6]], "t_start": 99.0}, "t_start"),
    ("iso-dataman", {"isovalue": 0.0, "scalar": "velocity"}, "scalar"),
    ("vortex-dataman", {"velocity": "pressure"}, "velocity"),
    ("pathlines-dataman", {"seeds": [[0.1, 0.2, 0.6]], "t_start": 1.5, "t_end": 1.0},
     "t_start"),
    ("pathlines-dataman", {"seeds": [[0.1, 0.2, 0.6]], "t_start": 2.0}, "t_start"),
    ("streaklines", {"seeds": [[0.1, 0.2, 0.6]], "t_observe": 0.0}, "t_observe"),
]


@pytest.mark.parametrize("command,params,needle", MALFORMED)
def test_a_malformed_request_is_a_400_that_takes_nothing(app, command, params, needle):
    _, health = app.handle("GET", "/healthz", None)
    _, tenants = app.handle("GET", "/v1/tenants", None)
    status, payload = _submit(app, command, params)
    assert status == 400
    assert needle in payload["error"]
    assert app.handle("GET", "/healthz", None)[1]["submitted"] == health["submitted"]
    assert app.handle("GET", "/v1/tenants", None)[1] == tenants


def test_progressive_takes_the_schedule_every_command_takes(app):
    for schedule in ("static", "dynamic"):
        status, payload = _submit(app, "iso-progressive", {
            "isovalue": -0.3, "time_range": [0, 1], "schedule": schedule,
        })
        assert status == 200, payload
