"""Synthetic paired known/target architecture datasets with known ground truth.

Each component's power is generated as

    hw_scale(H_i) * arch_scale * event_factor(E_i) * (1 + noise)

so the multiplicative structure the modeling pipeline assumes holds by
construction (unless a component is deliberately flagged dissimilar, in
which case the target architecture uses a reversed functional form).
The ground truth is retained for oracle comparisons.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import (
    CANONICAL_PARAMETERS,
    ComponentDef,
    Configuration,
    Dataset,
    PowerSample,
    builtin_component_table,
    builtin_registry,
    left_sum,
    read_json_file,
    schema_errors,
    write_text_atomic,
)
from .errors import ValidationError

# Design-space bounds per hardware parameter (min, max).
PARAM_RANGES = {
    "FetchWidth": (4, 8),
    "DecodeWidth": (1, 5),
    "FetchBufferEntry": (5, 40),
    "RobEntry": (16, 140),
    "IntPhyRegister": (36, 140),
    "FpPhyRegister": (36, 140),
    "LDQ/STQEntry": (4, 40),
    "BranchCount": (6, 20),
    "Mem/FpIssueWidth": (1, 2),
    "IntIssueWidth": (1, 6),
    "DCache/ICacheWay": (2, 8),
    "DTLBEntry": (8, 32),
    "MSHREntry": (2, 8),
    "ICacheFetchBytes": (2, 4),
}

# How strongly event-statistic values depend on the configuration.
EVENT_CONFIG_COUPLING = 0.05

# How far the target architecture's linear coefficients move for dominant
# components: c0 shrinks by half this fraction, c1 grows by all of it.
RETRAIN_SHIFT = 0.6


def _pnorm(name: str, value: float) -> float:
    lo, hi = PARAM_RANGES[name]
    return (float(value) - lo) / (hi - lo)


def _uniform(u: float, lo: float, hi: float) -> float:
    """A unit draw mapped onto [lo, hi), as numpy's Generator.uniform maps it."""
    return float(lo + (hi - lo) * u)


def _slug(name: str) -> str:
    return name.lower().replace(" ", "_").replace("-", "_").replace("/", "_")


@dataclass(frozen=True)
class ComponentGen:
    """Generating functions for one component, for both architectures."""

    name: str
    hw_params: tuple[str, ...]
    ref_param: str  # the parameter single-parameter forms read
    hw_form_known: str
    hw_form_target: str
    hw_coeffs_known: tuple[float, float]
    hw_coeffs_target: tuple[float, float]
    arch_scale_known: float
    arch_scale_target: float
    event_stat: str
    event_coeffs_known: tuple[float, float]
    event_coeffs_target: tuple[float, float]
    dominant_param: str | None = None
    dissimilar: bool = False

    def _shape(self, form: str, params: dict[str, int]) -> float:
        if form == "constant":
            return 0.0
        if form == "linear":
            return _pnorm(self.ref_param, params[self.ref_param])
        if form == "reversed":
            return 1.0 - _pnorm(self.ref_param, params[self.ref_param])
        norms = [_pnorm(p, params[p]) for p in self.hw_params]
        if form == "product":
            prod = 1.0
            for v in norms:
                prod *= 0.5 + v
            return prod ** (1.0 / len(norms))
        raise ValidationError(f"unknown hardware form {form!r}")

    def hw_scale(self, arch: str, params: dict[str, int]) -> float:
        if arch == "known":
            form, (c0, c1) = self.hw_form_known, self.hw_coeffs_known
            scale = self.arch_scale_known
        else:
            form, (c0, c1) = self.hw_form_target, self.hw_coeffs_target
            scale = self.arch_scale_target
        return (c0 + c1 * self._shape(form, params)) * scale

    def event_value(self, workload_base, params: dict[str, int]):
        """The event statistic on one workload, or elementwise on an array of them."""
        # Flat components carry no configuration signal in their events either.
        coupling = 0.0 if self.hw_form_known == "constant" else EVENT_CONFIG_COUPLING
        return workload_base * (
            1.0 + coupling * _pnorm(self.ref_param, params[self.ref_param])
        )

    def event_factor(self, arch: str, event_value):
        a, b = self.event_coeffs_known if arch == "known" else self.event_coeffs_target
        return a + b * event_value


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    components: tuple[ComponentGen, ...]
    workload_base: tuple[float, ...]
    n_known_configs: int = 15
    n_target_configs: int = 10
    n_workloads: int = 8
    noise_sigma: float = 0.01
    known_arch: str = "SynthKnown"
    target_arch: str = "SynthTarget"

    def component(self, name: str) -> ComponentGen:
        for gen in self.components:
            if gen.name == name:
                return gen
        raise ValidationError(f"unknown component {name!r}")


@dataclass(frozen=True)
class GroundTruth:
    """Noise-free access to every generating function."""

    spec: SynthSpec

    def component_power(
        self, arch: str, comp: str, params: dict[str, int], workload: str
    ) -> float:
        gen = self.spec.component(comp)
        w = int(workload.removeprefix("w"))
        if not 0 <= w < self.spec.n_workloads:
            raise ValidationError(f"workload {workload!r} outside the generated domain")
        e = gen.event_value(self.spec.workload_base[w], params)
        return gen.hw_scale(arch, params) * gen.event_factor(arch, e)

    def total_power(self, arch: str, params: dict[str, int], workload: str) -> float:
        return left_sum(
            self.component_power(arch, gen.name, params, workload)
            for gen in self.spec.components
        )


def default_spec(
    seed: int,
    n_known_configs: int = 15,
    n_target_configs: int = 10,
    n_workloads: int = 8,
    noise_sigma: float = 0.01,
    dissimilar: tuple[str, ...] = (),
    proportional_only: bool = False,
) -> SynthSpec:
    """Structure-faithful spec whose dominance pattern follows the built-in
    component table: components with a designated important parameter get a
    single-parameter linear hardware scale, the rest a multi-parameter
    product (flat for the one single-parameter non-dominant component).

    Dominant components' target coefficients are skewed by RETRAIN_SHIFT so
    retraining has something to recover; `proportional_only` makes every
    target function an exact positive multiple of the known one;
    `dissimilar` names components whose target form is reversed, breaking
    cross-architecture similarity on purpose.
    """
    rng = np.random.default_rng([seed, 1])
    table = builtin_component_table()
    gens = []
    for comp in table:
        # Nine draws per component, used or not, each mapped onto its range:
        # magnitude, target ratio, c0, c1, (unused), a_k, b_k, a_t, b_t.
        u = rng.random(9)
        magnitude = _uniform(u[0], 2.0, 20.0)
        target_ratio = _uniform(u[1], 0.6, 1.6)
        ref = comp.important_param or comp.hw_params[0]
        if comp.important_param is not None:
            form = "linear"
            c0, c1 = _uniform(u[2], 0.4, 0.8), _uniform(u[3], 1.5, 3.0)
            # One shift direction for every dominant component; mixed signs
            # let per-component biases cancel in the total, which makes the
            # summed power a misleading yardstick for partial corrections.
            if proportional_only:
                target_coeffs = (c0, c1)
            else:
                target_coeffs = (c0 * (1.0 - 0.5 * RETRAIN_SHIFT), c1 * (1.0 + RETRAIN_SHIFT))
        elif len(comp.hw_params) == 1:
            form = "constant"
            c0, c1 = 1.0, 0.0
            target_coeffs = (c0, c1)
        else:
            form = "product"
            c0, c1 = _uniform(u[2], 0.3, 0.6), _uniform(u[3], 0.8, 1.5)
            target_coeffs = (c0, c1)
        target_form = "reversed" if comp.name in dissimilar else form
        a_k, b_k = _uniform(u[5], 0.4, 0.8), _uniform(u[6], 0.3, 1.0)
        if proportional_only:
            a_t, b_t = a_k, b_k
        else:
            a_t, b_t = _uniform(u[7], 0.4, 0.8), _uniform(u[8], 0.3, 1.0)
        gens.append(
            ComponentGen(
                name=comp.name,
                hw_params=comp.hw_params,
                ref_param=ref,
                hw_form_known=form,
                hw_form_target=target_form,
                hw_coeffs_known=(c0, c1),
                hw_coeffs_target=target_coeffs,
                arch_scale_known=magnitude,
                arch_scale_target=magnitude * target_ratio,
                event_stat=f"{_slug(comp.name)}_act",
                event_coeffs_known=(a_k, b_k),
                event_coeffs_target=(a_t, b_t),
                dominant_param=comp.important_param,
                dissimilar=comp.name in dissimilar,
            )
        )
    workload_base = tuple(float(v) for v in rng.uniform(0.4, 1.8, n_workloads))
    return SynthSpec(
        seed=seed,
        components=tuple(gens),
        workload_base=workload_base,
        n_known_configs=n_known_configs,
        n_target_configs=n_target_configs,
        n_workloads=n_workloads,
        noise_sigma=noise_sigma,
    )


def _component_table_with_events(spec: SynthSpec) -> tuple[ComponentDef, ...]:
    table = []
    for comp in builtin_component_table():
        gen = spec.component(comp.name)
        table.append(
            ComponentDef(
                name=comp.name,
                hw_params=comp.hw_params,
                event_stats=(gen.event_stat,),
                important_param=comp.important_param,
            )
        )
    return tuple(table)


def _sample_configs(rng, arch: str, prefix: str, count: int) -> list[Configuration]:
    configs = []
    for i in range(count):
        params = {
            name: int(rng.integers(lo, hi + 1))
            for name, (lo, hi) in (
                (p, PARAM_RANGES[p]) for p in CANONICAL_PARAMETERS
            )
        }
        configs.append(Configuration(id=f"{prefix}{i + 1:02d}", architecture=arch, params=params))
    return configs


def _generate_samples(spec: SynthSpec, rng, arch: str, configs: list[Configuration]):
    # Each configuration over all workloads at once.  The noise draw follows the scalar loop's
    # (configuration, workload, component) order and each product its scalar order.
    gens = spec.components
    z = rng.standard_normal((len(configs), spec.n_workloads, len(gens)))
    noise = np.maximum(1.0 + spec.noise_sigma * z, 0.5)
    base = np.array(spec.workload_base)
    samples = []
    for cfg, cfg_noise in zip(configs, noise):
        events = [gen.event_value(base, cfg.params) for gen in gens]
        clean = [
            gen.hw_scale(arch, cfg.params) * gen.event_factor(arch, e) for gen, e in zip(gens, events)
        ]
        power = (np.array(clean).T * cfg_noise).tolist()
        for w, (row, event_row) in enumerate(zip(power, np.array(events).T.tolist())):
            samples.append(PowerSample(
                config_id=cfg.id, workload=f"w{w}", total_power=left_sum(row),
                component_power={gen.name: v for gen, v in zip(gens, row)},
                event_stats={gen.event_stat: v for gen, v in zip(gens, event_row)},
            ))
    return samples


def generate_pair(spec: SynthSpec) -> tuple[Dataset, Dataset, GroundTruth]:
    if spec.n_known_configs < 2 or spec.n_target_configs < 2 or spec.n_workloads < 1:
        raise ValidationError("need at least 2 configurations per side and 1 workload")
    if len(spec.workload_base) != spec.n_workloads:
        raise ValidationError("workload_base length must match n_workloads")
    rng = np.random.default_rng([spec.seed, 2])
    table = _component_table_with_events(spec)
    registry = builtin_registry()

    known_configs = _sample_configs(rng, spec.known_arch, "K", spec.n_known_configs)
    target_configs = _sample_configs(rng, spec.target_arch, "T", spec.n_target_configs)
    ds_known = Dataset(
        architecture=spec.known_arch,
        configurations=tuple(known_configs),
        samples=tuple(_generate_samples(spec, rng, "known", known_configs)),
        component_table=table,
        registry=registry,
    )
    ds_target = Dataset(
        architecture=spec.target_arch,
        configurations=tuple(target_configs),
        samples=tuple(_generate_samples(spec, rng, "target", target_configs)),
        component_table=table,
        registry=registry,
    )
    return ds_known, ds_target, GroundTruth(spec=spec)


# --- serialization ----------------------------------------------------------


def spec_to_dict(spec: SynthSpec) -> dict:
    return {
        "seed": spec.seed,
        "n_known_configs": spec.n_known_configs,
        "n_target_configs": spec.n_target_configs,
        "n_workloads": spec.n_workloads,
        "noise_sigma": spec.noise_sigma,
        "known_arch": spec.known_arch,
        "target_arch": spec.target_arch,
        "workload_base": list(spec.workload_base),
        # Tuples become JSON lists; keys follow ComponentGen's field order.
        "components": [
            {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(g).items()}
            for g in spec.components
        ],
    }


@schema_errors("synthetic spec")
def spec_from_dict(doc: dict) -> SynthSpec:
    components = tuple(
        ComponentGen(**{k: tuple(v) if isinstance(v, list) else v for k, v in g.items()})
        for g in doc["components"]
    )
    return SynthSpec(
        seed=doc["seed"],
        components=components,
        workload_base=tuple(doc["workload_base"]),
        n_known_configs=doc["n_known_configs"],
        n_target_configs=doc["n_target_configs"],
        n_workloads=doc["n_workloads"],
        noise_sigma=doc["noise_sigma"],
        known_arch=doc["known_arch"],
        target_arch=doc["target_arch"],
    )


def save_spec(spec: SynthSpec, path: str | os.PathLike):
    write_text_atomic(path, json.dumps(spec_to_dict(spec), indent=1) + "\n")


def load_spec(path: str | os.PathLike) -> SynthSpec:
    return spec_from_dict(read_json_file(path, "synthetic spec"))
