"""Scenario files: JSON descriptions of spaces, Young functions, simple
functions, and transformations, plus run parameters.

Numbers serialize with 17 significant digits; infinities as the string
"inf", so files round-trip exactly and diff cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .extreal import INF, encode_json
from .measure import (
    CollapseLaw,
    ConstantWeights,
    CountableSpace,
    DivCeilLaw,
    FiniteSpace,
    GeometricWeights,
    IdentityLaw,
    PairSwapLaw,
    PowerIndexLaw,
    PowerLawWeights,
    ShiftLaw,
    SimpleFunction,
    Space,
    Transformation,
)
from .tails import (
    ConstantTail,
    GeometricTail,
    IndexPowerTail,
    SparseGeometricTail,
    TailLaw,
    ZeroTail,
)
from .young import (
    AbsValue,
    ExpMinusOne,
    HardCap,
    PiecewiseLinearConvex,
    PowerAbs,
    PowerOverP,
    ScaledPower,
    XLogX,
    YoungFunction,
)

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario", "serialize_scenario", "parse_young_spec"]


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate; the message carries the path."""


@dataclass
class Scenario:
    space: Space
    youngs: dict[str, YoungFunction]
    functions: dict[str, SimpleFunction]
    maps: dict[str, Transformation]
    params: dict[str, Any] = field(default_factory=dict)

    def young(self, name: str) -> YoungFunction:
        if name not in self.youngs:
            raise ScenarioError(f"unknown Young function {name!r}")
        return self.youngs[name]

    def function(self, name: str) -> SimpleFunction:
        if name not in self.functions:
            raise ScenarioError(f"unknown function {name!r}")
        return self.functions[name]

    def map(self, name: str) -> Transformation:
        if name not in self.maps:
            raise ScenarioError(f"unknown map {name!r}")
        return self.maps[name]


def _num(x, where: str) -> float:
    if isinstance(x, str):
        if x == "inf":
            return INF
        if x == "-inf":
            return -INF
        raise ScenarioError(f"{where}: bad number {x!r}")
    if not isinstance(x, (int, float)) or x != x:
        raise ScenarioError(f"{where}: bad number {x!r}")
    return float(x)


def _section(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise ScenarioError(f"{where}: expected a JSON object, got {type(x).__name__}")
    return x


# The closed-form Young families: name -> (constructor, parameter names in
# the order of the inline spec, e.g. scaled_power:<coeff>:<p>).
_YOUNG_FAMILIES = {
    "power_abs": (PowerAbs, ("p",)),
    "power_over_p": (PowerOverP, ("p",)),
    "scaled_power": (ScaledPower, ("coeff", "p")),
    "abs_value": (AbsValue, ()),
    "exp_minus_one": (ExpMinusOne, ()),
    "x_log_x": (XLogX, ()),
    "hard_cap": (HardCap, ("cap",)),
}


def _young_from_dict(d: dict, named: dict[str, YoungFunction], where: str) -> YoungFunction:
    if not isinstance(d, dict) or "family" not in d:
        raise ScenarioError(f"{where}: Young function needs a 'family'")
    fam = d["family"]
    if fam in _YOUNG_FAMILIES:
        make, keys = _YOUNG_FAMILIES[fam]
        for key in keys:
            if key not in d:
                raise ScenarioError(f"{where}: Young family {fam!r} needs {key!r}")
        return make(*(_num(d[key], where) for key in keys))
    if fam == "piecewise_linear":
        pts = [(_num(x, where), _num(v, where)) for x, v in d["points"]]
        return PiecewiseLinearConvex(pts, extension=d.get("extension", "slope"))
    if fam == "conjugate_of":
        ref = d["of"]
        if isinstance(ref, str):
            if ref not in named:
                raise ScenarioError(f"{where}: conjugate_of references unknown {ref!r}")
            return named[ref].conjugate()
        return _young_from_dict(ref, named, where).conjugate()
    raise ScenarioError(f"{where}: unknown Young family {fam!r}")


def parse_young_spec(text: str) -> YoungFunction:
    """Inline form used on the command line, e.g. power_abs:2 or exp_minus_one."""
    fam, *args = text.split(":")
    if fam not in _YOUNG_FAMILIES:
        raise ScenarioError(f"unknown Young spec {text!r}")
    make, keys = _YOUNG_FAMILIES[fam]
    if len(args) < len(keys):
        raise ScenarioError(f"bad Young spec {text!r}: missing {keys[len(args)]!r}")
    try:
        return make(*(float(a) for a in args[: len(keys)]))
    except ValueError as exc:
        raise ScenarioError(f"bad Young spec {text!r}: {exc}") from exc


def _tail_from_dict(d: Optional[dict], where: str) -> Optional[TailLaw]:
    if d is None:
        return None
    fam = _section(d, f"{where}.tail").get("family")
    if fam == "zero":
        return ZeroTail()
    if fam == "constant":
        return ConstantTail(_num(d["value"], where))
    if fam == "geometric":
        return GeometricTail(_num(d["coeff"], where), _num(d["ratio"], where))
    if fam == "index_power":
        return IndexPowerTail(_num(d["coeff"], where), _num(d["exponent"], where))
    if fam == "sparse_geometric":
        return SparseGeometricTail(
            int(d["base"]), _num(d["coeff"], where), _num(d["growth"], where), int(d.get("start", 1))
        )
    raise ScenarioError(f"{where}: unknown tail family {fam!r}")


def _space_from_dict(d: dict) -> Space:
    kind = _section(d, "space").get("kind")
    if kind == "finite":
        atoms = d.get("atoms")
        if not isinstance(atoms, list) or not all(isinstance(p, list) and len(p) == 2 for p in atoms):
            raise ScenarioError("space.atoms: expected a list of [atom, weight] pairs")
        return FiniteSpace.from_pairs([(str(a), _num(w, "space.atoms")) for a, w in atoms])
    if kind == "countable":
        wl = _section(d.get("weight_law", {}), "space.weight_law")
        fam = wl.get("family")
        if fam == "constant":
            law = ConstantWeights(_num(wl["c"], "weight_law"))
        elif fam == "geometric":
            law = GeometricWeights(_num(wl["a"], "weight_law"), _num(wl["r"], "weight_law"))
        elif fam == "power_law":
            law = PowerLawWeights(_num(wl["c"], "weight_law"), _num(wl["s"], "weight_law"))
        else:
            raise ScenarioError(f"unknown weight law {fam!r}")
        return CountableSpace(law, int(d.get("depth", 64)))
    raise ScenarioError(f"unknown space kind {kind!r}")


_MAP_LAWS = {
    "identity": lambda d: IdentityLaw(),
    "collapse": lambda d: CollapseLaw(int(d.get("target", 1))),
    "shift": lambda d: ShiftLaw(int(d.get("k", 1))),
    "div_ceil": lambda d: DivCeilLaw(int(d.get("d", 2))),
    "power_index": lambda d: PowerIndexLaw(int(d.get("e", 2))),
    "pair_swap": lambda d: PairSwapLaw(),
}


def _map_from_dict(d: dict, space: Space, where: str) -> Transformation:
    kind = _section(d, where).get("kind", "explicit" if space.is_finite else "law")
    if kind == "explicit":
        if not space.is_finite:
            raise ScenarioError(f"{where}: explicit maps need a finite space")
        mapping = {str(k): str(v) for k, v in _section(d.get("map"), f"{where}.map").items()}
        missing = set(space.atoms) - set(mapping)
        if missing:
            raise ScenarioError(f"{where}: map missing atoms {sorted(missing)}")
        return Transformation.finite(space, mapping)
    if kind == "law":
        if space.is_finite:
            raise ScenarioError(f"{where}: law maps need a countable space")
        name = d.get("law")
        base = name.split(":")[0] if isinstance(name, str) else name
        args = dict(d)
        if isinstance(name, str) and ":" in name:
            parts = name.split(":")
            base = parts[0]
            for key, val in zip(("target", "k", "d", "e"), parts[1:]):
                args.setdefault(key, val)
        if base not in _MAP_LAWS:
            raise ScenarioError(f"{where}: unknown map law {name!r}")
        law = _MAP_LAWS[base](args)
        ov = _section(d.get("overrides", {}), f"{where}.overrides")
        overrides = {int(k): int(v) for k, v in ov.items()}
        return Transformation.from_law(space, law, overrides)
    raise ScenarioError(f"{where}: unknown map kind {kind!r}")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict) or "space" not in doc:
        raise ScenarioError("scenario needs a 'space' section")
    space = _space_from_dict(doc["space"])
    youngs: dict[str, YoungFunction] = {}
    for name, yd in _section(doc.get("young") or {}, "young").items():
        youngs[name] = _young_from_dict(yd, youngs, f"young.{name}")
    functions: dict[str, SimpleFunction] = {}
    for name, fd in _section(doc.get("functions") or {}, "functions").items():
        where = f"functions.{name}"
        values = {}
        for atom, v in _section(_section(fd, where).get("values") or {}, f"{where}.values").items():
            key: object = atom if space.is_finite else int(atom)
            try:
                space.index_of(key)
            except KeyError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
            values[key] = _num(v, where)
        tail = _tail_from_dict(fd.get("tail"), where)
        functions[name] = SimpleFunction.from_dict(space, values, tail)
    maps: dict[str, Transformation] = {}
    for name, md in _section(doc.get("maps") or {}, "maps").items():
        maps[name] = _map_from_dict(md, space, f"maps.{name}")
    params = dict(_section(doc.get("params") or {}, "params"))
    return Scenario(space, youngs, functions, maps, params)


def read_document(path: str) -> dict:
    """The top-level JSON object of a scenario file, its sections unvalidated."""
    try:
        with open(path) as fh:
            return _section(json.load(fh), "scenario")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON (line {exc.lineno})") from exc


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_document(path))


def serialize_scenario(sc: Scenario) -> dict:
    doc: dict = {"space": sc.space.descriptor()}
    if sc.youngs:
        doc["young"] = {k: v.descriptor() for k, v in sc.youngs.items()}
    if sc.functions:
        doc["functions"] = {k: f.to_dict() for k, f in sc.functions.items()}
    if sc.maps:
        doc["maps"] = {k: t.descriptor() for k, t in sc.maps.items()}
    if sc.params:
        doc["params"] = dict(sc.params)
    return encode_json(doc)
