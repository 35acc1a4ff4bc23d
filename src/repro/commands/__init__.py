"""The command library (layer 3): the paper's six evaluated commands,
plus cut-plane and progressive extensions."""

from ..core.commands import CommandRegistry
from .iso import IsoDataManCommand, SimpleIsoCommand, ViewerIsoCommand
from .vortex import SimpleVortexCommand, StreamedVortexCommand, VortexDataManCommand
from .pathline_cmd import PathlinesDataManCommand, SimplePathlinesCommand
from .cutplane_cmd import CutplaneCommand, StreamedCutplaneCommand
from .progressive import ProgressiveIsoCommand
from .streakline_cmd import StreaklinesCommand

ALL_COMMANDS = [
    SimpleIsoCommand,
    IsoDataManCommand,
    ViewerIsoCommand,
    SimpleVortexCommand,
    VortexDataManCommand,
    StreamedVortexCommand,
    SimplePathlinesCommand,
    PathlinesDataManCommand,
    CutplaneCommand,
    StreamedCutplaneCommand,
    ProgressiveIsoCommand,
    StreaklinesCommand,
]


def default_registry() -> CommandRegistry:
    """A registry with every built-in command installed."""
    registry = CommandRegistry()
    for cls in ALL_COMMANDS:
        registry.register(cls)
    return registry


_ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
_VORTEX = {"threshold": -0.5, "time_range": (0, 1)}
_PATHLINES = {
    "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1]],
    "time_range": (0, 2),
    "max_steps": 60,
}
_CUTPLANE = {"normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 1)}

#: params for every registered command on the small Engine testbed: the
#: shapes the CLI verbs and the regression sentry run.
DEMO_PARAMS: dict[str, dict] = {
    "iso-dataman": _ISO, "iso-simple": _ISO, "iso-progressive": _ISO,
    "iso-viewer": {**_ISO, "viewpoint": (0.0, 0.0, -5.0), "max_triangles": 2000},
    "vortex-dataman": _VORTEX, "vortex-simple": _VORTEX,
    "vortex-streamed": {**_VORTEX, "batch_cells": 16},
    "pathlines-dataman": _PATHLINES, "pathlines-simple": _PATHLINES,
    "cutplane": _CUTPLANE, "cutplane-streamed": _CUTPLANE,
    "streaklines": _PATHLINES,
}

#: short names for the four headline commands.
DEMO_ALIASES = {
    "iso": "iso-dataman",
    "vortex": "vortex-dataman",
    "pathlines": "pathlines-dataman",
    "cutplane": "cutplane",
}

__all__ = [
    "ALL_COMMANDS",
    "DEMO_ALIASES",
    "DEMO_PARAMS",
    "default_registry",
    "SimpleIsoCommand",
    "IsoDataManCommand",
    "ViewerIsoCommand",
    "SimpleVortexCommand",
    "VortexDataManCommand",
    "StreamedVortexCommand",
    "SimplePathlinesCommand",
    "PathlinesDataManCommand",
    "CutplaneCommand",
    "StreamedCutplaneCommand",
    "ProgressiveIsoCommand",
    "StreaklinesCommand",
]
