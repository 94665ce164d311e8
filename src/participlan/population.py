"""Synthetic resident population.

Residents get a demographic profile drawn from configured marginals, a
home sampled inside a residential area, an optional background tag that
marks them as part of a marginalized group, a one-sentence description,
and a short list of facility needs. Synthesis is a pure function of
(spec, region, seed).

A Population is arrays over a table of personas: residents with one
profile and background share a persona, whose description and needs
come from one rules call each. Per resident it keeps an id, a persona
index, a home and the home's area id. Resident objects are built on
demand, for the speakers a discussion prompts and for code that walks
Population.residents.

Homes come from one stream of (x, y) pairs of uniforms: residents take
pairs in order, each until a pair lands in its area, so the homes equal,
bit for bit, those of drawing one resident at a time. Pairs are drawn in
blocks and tested in batches; points inside an axis-aligned rectangle's
box need no test, and the rest take point_in_polygon in order.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import geometry, rules
from .errors import GeometryError, NeedsMissing, ParseError, SpecError
from .geometry import Point
from .region import ASSIGNABLE_USES, USE_CODES, Area, LandUse, Region

log = logging.getLogger(__name__)

_PROFILE_FIELDS = ("gender", "age_band", "education", "family_size")


@dataclass(frozen=True)
class Profile:
    gender: str
    age_band: str
    education: str
    family_size: str

    def facts(self, background: Optional[str] = None) -> dict[str, Optional[str]]:
        d = {f: getattr(self, f) for f in _PROFILE_FIELDS}
        d["background"] = background
        return d


@dataclass(frozen=True)
class MarginalizedQuota:
    label: str
    count: int
    force: Mapping[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class DemographicSpec:
    n_agents: int
    gender: Mapping[str, float]
    age_band: Mapping[str, float]
    education: Mapping[str, float]
    family_size: Mapping[str, float]
    quotas: tuple[MarginalizedQuota, ...] = ()

    def distribution(self, field_name: str) -> Mapping[str, float]:
        return getattr(self, field_name)

    def validate(self) -> None:
        if not 0 < self.n_agents <= np.iinfo(np.intp).max:
            raise SpecError("n_agents must be positive and fit a numpy array")
        for name in _PROFILE_FIELDS:
            dist = self.distribution(name)
            if not dist:
                raise SpecError(f"{name}: empty distribution")
            total = sum(dist.values())
            if not abs(total - 1.0) <= 1e-9:  # NaN fails this too
                raise SpecError(f"{name}: probabilities sum to {total}, expected 1")
            if any(p < 0 for p in dist.values()):
                raise SpecError(f"{name}: negative probability")
        total_quota = sum(q.count for q in self.quotas)
        if total_quota > self.n_agents:
            raise SpecError(
                f"marginalized quotas sum to {total_quota} > n_agents {self.n_agents}")
        for q in self.quotas:
            if q.count < 0:
                raise SpecError(f"quota {q.label}: negative count")
            for fname, allowed in q.force.items():
                if fname not in _PROFILE_FIELDS:
                    raise SpecError(f"quota {q.label}: unknown field {fname}")
                if not allowed:
                    raise SpecError(f"quota {q.label}: no allowed {fname} labels")
                labels = set(self.distribution(fname))
                bad = [v for v in allowed if v not in labels]
                if bad:
                    raise SpecError(f"quota {q.label}: unknown {fname} labels {bad}")


def _label_list(value) -> tuple[str, ...]:
    """A quota's allowed labels for one field, which JSON gives as a list
    of strings."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"quota force values must be lists of labels, not {value!r}")
    return tuple(value)


def load_demographics(path: Union[str, Path]) -> DemographicSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    try:
        quotas = tuple(
            MarginalizedQuota(
                label=str(q["label"]),
                count=int(q["count"]),
                force={k: _label_list(v) for k, v in (q.get("force") or {}).items()},
            )
            for q in doc.get("quotas", []))
        spec = DemographicSpec(
            n_agents=int(doc["n_agents"]),
            gender={str(k): float(v) for k, v in doc["gender"].items()},
            age_band={str(k): float(v) for k, v in doc["age_band"].items()},
            education={str(k): float(v) for k, v in doc["education"].items()},
            family_size={str(k): float(v) for k, v in doc["family_size"].items()},
            quotas=quotas,
        )
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ParseError(f"{path}: {exc!r}") from exc
    spec.validate()
    return spec


def demographics_to_json_dict(spec: DemographicSpec) -> dict:
    return {
        "n_agents": spec.n_agents,
        "gender": dict(spec.gender),
        "age_band": dict(spec.age_band),
        "education": dict(spec.education),
        "family_size": dict(spec.family_size),
        "quotas": [
            {"label": q.label, "count": q.count,
             "force": {k: list(v) for k, v in q.force.items()}}
            for q in spec.quotas
        ],
    }


def save_demographics(spec: DemographicSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(demographics_to_json_dict(spec), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class Resident:
    id: int
    profile: Profile
    background: Optional[str]
    description: str
    home: Point
    home_area_id: int
    needs: tuple[LandUse, ...]

    @property
    def is_marginalized(self) -> bool:
        return self.background is not None


@dataclass(frozen=True)
class Persona:
    """What the residents with one profile and background share."""
    profile: Profile
    background: Optional[str]
    description: str
    needs: tuple[LandUse, ...]


def _read_only(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


class Population:
    """Residents as read-only arrays over a persona table (see above)."""

    def __init__(self, residents: Sequence[Resident], seed: int) -> None:
        """The population of hand-made Resident objects."""
        table: dict[Persona, int] = {}
        persona_of = [table.setdefault(Persona(r.profile, r.background,
                                               r.description, r.needs),
                                       len(table)) for r in residents]
        self._set(seed, tuple(table), persona_of,
                  [tuple(r.home) for r in residents],
                  [r.home_area_id for r in residents], [r.id for r in residents])

    @classmethod
    def from_arrays(cls, seed: int, personas: tuple[Persona, ...], persona_of,
                    homes, home_area_ids, ids) -> Population:
        """The population of a persona table and, per resident, a persona
        index, a home (n, 2), a home area id and an id; arrays of the
        right dtype are kept, and made read-only, in place."""
        population = cls.__new__(cls)
        population._set(seed, personas, persona_of, homes, home_area_ids, ids)
        return population

    def _set(self, seed, personas, persona_of, homes, home_area_ids, ids):
        self.seed, self.personas = seed, personas
        self.persona_of, self.home_area_ids, self.ids = (
            _read_only(a, np.intp) for a in (persona_of, home_area_ids, ids))
        self.homes = _read_only(homes, float).reshape(-1, 2)

    def __len__(self) -> int:
        return len(self.ids)

    def resident(self, i: int) -> Resident:
        """The resident at position i, its home equal to homes[i]."""
        p = self.personas[self.persona_of[i]]
        return Resident(int(self.ids[i]), p.profile, p.background,
                        p.description, Point(*self.homes[i].tolist()),
                        int(self.home_area_ids[i]), p.needs)

    @cached_property
    def residents(self) -> tuple[Resident, ...]:
        return tuple(map(self.resident, range(len(self))))

    @cached_property
    def position_of(self) -> dict[int, int]:
        """Each resident's position in the arrays, by id."""
        return dict(zip(self.ids.tolist(), range(len(self))))

    def _gather(self, per_persona, dtype) -> np.ndarray:
        """One row per persona, gathered to every resident, read-only."""
        return _read_only(np.asarray(per_persona, dtype=dtype)[self.persona_of],
                          dtype)

    @cached_property
    def needs_mask(self) -> tuple[np.ndarray, np.ndarray]:
        """(bool[resident, assignable use], needs count per resident),
        read-only; raises NeedsMissing if a resident has no needs."""
        counts = self._gather([len(p.needs) for p in self.personas], float)
        if not counts.all():
            raise NeedsMissing(f"resident {self.ids[np.argmin(counts)]} "
                               "has an empty needs list")
        mask = self._gather([[u in p.needs for u in ASSIGNABLE_USES]
                             for p in self.personas], bool)
        # (0, uses) when there are no residents
        return mask.reshape(len(self), len(ASSIGNABLE_USES)), counts

    @cached_property
    def marginalized_mask(self) -> np.ndarray:
        """True for every marginalized resident, read-only."""
        return self._gather([p.background is not None for p in self.personas],
                            bool)

    def marginalized(self) -> tuple[Resident, ...]:
        return tuple(r for r in self.residents if r.is_marginalized)


def _draw_categorical(rng: np.random.Generator, dist: Mapping[str, float],
                      n: int) -> np.ndarray:
    """n indexes into list(dist), drawn with its probabilities."""
    probs = np.array(list(dist.values()), dtype=float)
    return rng.choice(len(probs), size=n, p=probs / probs.sum())


_MAX_SAMPLE_TRIES = 10_000


def _sample_homes(rng: np.random.Generator, areas: Sequence[Area],
                  boxes: np.ndarray, home_idx: np.ndarray) -> np.ndarray:
    """(x, y) of each resident's home, in areas[home_idx[i]]. `boxes` holds
    each area's (x0, y0, x1, y1) bounding box, as in Region.area_boxes.

    Residents take (x, y) pairs of uniforms u from one stream, in order,
    each until the point lo + span * u lands in its area. Points of
    rectangles inside their box need no test; the others take
    point_in_polygon in order. A batch maps up to `size` pairs to the next
    residents, one each, up to its first miss; the resident that missed
    goes on with the next pair. `size` doubles after a batch with no miss
    and falls back to twice the pairs used after one. Pairs are drawn only
    when all drawn ones are used, and never more than residents are left,
    so every pair drawn is used.
    """
    lo, hi = boxes[:, :2], boxes[:, 2:]
    span = hi - lo
    filled = np.array([a.fills_its_box for a in areas])
    n = len(home_idx)
    homes = np.empty((n, 2))
    pairs = np.empty((0, 2))
    start, size, misses = 0, n, 0
    while start < n:
        if not len(pairs):
            pairs = rng.random((min(size, n - start), 2))
        idx = home_idx[start:start + min(size, len(pairs))]
        pts = lo[idx] + span[idx] * pairs[:len(idx)]
        ok = filled[idx] & (pts < hi[idx]).all(axis=1)
        r = len(idx)
        for i in np.flatnonzero(~ok).tolist():
            if not geometry.point_in_polygon(Point(*pts[i].tolist()),
                                             tuple(areas[idx[i]].boundary)):
                r = i
                break
        homes[start:start + r] = pts[:r]
        if r == len(idx):
            pairs = pairs[r:]
            start, size, misses = start + r, 2 * size, 0
            continue
        # misses in a row of resident start + r
        misses = (misses if r == 0 else 0) + 1
        if misses == _MAX_SAMPLE_TRIES:
            raise GeometryError(
                f"area {areas[idx[r]].id}: rejection sampling failed after "
                f"{_MAX_SAMPLE_TRIES} tries; polygon too thin?")
        pairs = pairs[r + 1:]
        start, size = start + r, 2 * (r + 1)
    return homes


def synthesize(spec: DemographicSpec, region: Region, seed: int) -> Population:
    """Build the full population for one region.

    Marginalized quotas claim the first residents in declaration order;
    forced fields are resampled from the allowed labels so the group
    definition holds (an elderly-living-alone resident is 65+ in a
    1-person household, say). Homes land in residential areas chosen
    proportionally to polygon area. Residents with the same profile and
    background share one description and needs list.
    """
    t0 = time.perf_counter()
    spec.validate()
    rng = np.random.default_rng(seed)
    n = spec.n_agents

    labels = {name: list(spec.distribution(name)) for name in _PROFILE_FIELDS}
    cols = {name: _draw_categorical(rng, spec.distribution(name), n)
            for name in _PROFILE_FIELDS}

    # each resident's background is an index into `tags`; None is 0
    tags = list(dict.fromkeys([None] + [q.label for q in spec.quotas]))
    backgrounds = np.zeros(n, dtype=np.intp)
    start = 0
    for q in spec.quotas:
        backgrounds[start:start + q.count] = tags.index(q.label)
        for i in range(start, start + q.count):
            for fname, allowed in q.force.items():
                if labels[fname][cols[fname][i]] not in allowed:
                    dist = spec.distribution(fname)
                    sub = {k: dist[k] for k in allowed if dist.get(k, 0) > 0}
                    if not sub:
                        sub = {k: 1.0 for k in allowed}
                    pick = list(sub)[_draw_categorical(rng, sub, 1)[0]]
                    cols[fname][i] = labels[fname].index(pick)
        start += q.count

    res_areas = region.residential_areas
    weights = np.array([a.area_m2 for a in res_areas], dtype=float)
    weights = weights / weights.sum()
    home_idx = rng.choice(len(res_areas), size=n, p=weights)
    boxes = region.area_boxes[region.fixed_codes == USE_CODES[LandUse.RESIDENTIAL]]
    homes = _sample_homes(rng, res_areas, boxes, home_idx)

    # one persona per distinct (profile, background): number the distinct
    # codes field by field, so that no number outgrows n * labels
    persona_of = np.zeros(n, dtype=np.intp)
    for codes, names in zip([*cols.values(), backgrounds], [*labels.values(), tags]):
        persona_of = np.unique(persona_of * len(names) + codes,
                               return_inverse=True)[1]
    member = np.empty(persona_of.max() + 1, dtype=np.intp)
    member[persona_of] = np.arange(n)  # some resident of each persona
    personas = []
    for i in member.tolist():
        profile = Profile(*(labels[f][cols[f][i]] for f in _PROFILE_FIELDS))
        facts = profile.facts(tags[backgrounds[i]])
        personas.append(Persona(profile, facts["background"],
                                rules.describe(facts),
                                rules.needs_from_rules(facts)))
    area_ids = np.array([a.id for a in res_areas])[home_idx]
    population = Population.from_arrays(seed, tuple(personas), persona_of,
                                        homes, area_ids, np.arange(n))
    log.debug("seed %s: %d residents, %d personas, synthesized in %.4f s",
              seed, n, len(personas), time.perf_counter() - t0)
    return population
