"""Suite driver: determinism, instance projection, scenario batteries."""

import json

import numpy as np

from orlicz import load_scenario
from orlicz.suite import (
    _project_instance,
    corpus_checks,
    instance_checks,
    random_finite_instance,
    verify_suite,
)


def test_generator_is_deterministic():
    a = [random_finite_instance(np.random.default_rng(3), i) for i in range(5)]
    b = [random_finite_instance(np.random.default_rng(3), i) for i in range(5)]
    for x, y in zip(a, b):
        assert x.space == y.space
        assert x.f.values == y.f.values
        assert x.map1.targets == y.map1.targets
        assert x.phi_fn.label() == y.phi_fn.label()


def test_suite_report_deterministic():
    r1 = verify_suite(seed=9, count=3, minimize=False).to_dict()
    r2 = verify_suite(seed=9, count=3, minimize=False).to_dict()
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_corpus_all_pass():
    results = corpus_checks()
    failures = [c for c in results if not c.passed]
    assert not failures, failures


def test_instance_checks_pass_on_sample():
    inst = random_finite_instance(np.random.default_rng(17), 0, max_atoms=8)
    results = instance_checks(inst)
    assert results
    assert all(c.passed for c in results), [c for c in results if not c.passed]


def test_projection_preserves_structure():
    inst = random_finite_instance(np.random.default_rng(21), 0, max_atoms=10)
    keep = list(inst.space.atoms[:4])
    small = _project_instance(inst, keep)
    assert small.space.atoms == tuple(keep)
    assert len(small.f.values) == 4
    assert small.perm.is_bijective
    for a in keep:
        assert small.map1.apply(a) in keep


def test_scenario_battery_included():
    sc = load_scenario("scenarios/geometric_collapse.json")
    rep = verify_suite(seed=2, count=1, scenarios=[sc], minimize=False)
    assert rep.failed == 0
    # Scenario-derived checks contribute to the total.
    rep_plain = verify_suite(seed=2, count=1, minimize=False)
    assert rep.total_checks > rep_plain.total_checks


def test_suite_report_independent_of_hash_seed(run_python):
    code = (
        "import json\n"
        "from orlicz.suite import verify_suite\n"
        "rep = verify_suite(seed=11, count=3).to_dict()\n"
        "rep.pop('elapsed_seconds')\n"
        "print(json.dumps(rep, sort_keys=True))\n"
    )
    assert run_python(code, hash_seed=1) == run_python(code, hash_seed=2)
