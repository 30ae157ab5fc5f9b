"""Byte identity of the interned input stage with the seed forms (tier-1).

:class:`~repro.data.instance.Instance` interns elements and sorts facts by
packed element ranks, its fingerprint renders each element once, and
:class:`~repro.data.tid.ProbabilisticInstance` validates its valuation in one
pass.  Store keys, engine cache keys and OBDD variable orders all depend on
the fact order, the domain and both fingerprints, so each must equal the seed
form kept in :mod:`repro.data.reference`, byte for byte:

* on the seeded ``random_workload`` instances, the benchmark families (path,
  partial 2-tree, RST line, a 5x5 grid and the ``lifted`` family), and a
  hypothesis strategy of mixed elements (``None``, ints, ``True``, floats,
  ``"1"`` and tuples);
* under ``PYTHONHASHSEED`` 0 and 1, each in its own interpreter: this module
  doubles as the script those subprocesses run;
* and against three digests computed by the seed, so a store written before
  the interned build still hits.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Fact, Instance, fact
from repro.data.reference import input_stage_seed
from repro.data.tid import ProbabilisticInstance
from repro.errors import ProbabilityError
from repro.generators import (
    directed_path_instance,
    grid_instance,
    labelled_partial_ktree_instance,
    rst_chain_instance,
)
from repro.testing import random_workload

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"


def _rendered(elements):
    return [(type(element).__name__, repr(element)) for element in elements]


def _rendered_facts(facts):
    return [(f.relation, _rendered(f.arguments)) for f in facts]


def assert_matches_seed(facts, valuation=None, default=1, signature=None):
    """Build the input stage both ways from one shuffled fact list and compare
    every output by its rendering, not just by equality (``1 == True``)."""
    facts = list(facts)
    random.Random(len(facts)).shuffle(facts)
    seed = input_stage_seed(facts, valuation, default, signature)
    tid = ProbabilisticInstance(Instance(facts, signature), valuation, default)
    instance = tid.instance
    assert _rendered_facts(instance.facts) == _rendered_facts(seed.facts)
    assert _rendered(instance.domain) == _rendered(seed.domain)
    assert instance.signature == seed.signature
    assert instance.fingerprint == seed.fingerprint
    assert list(tid.valuation().items()) == list(seed.valuation.items())
    assert tid.fingerprint == seed.tid_fingerprint


def _lifted_family(k, width=50):
    facts = [Fact("R", (f"a{i}",)) for i in range(k)]
    facts += [Fact("S", (f"a{i}", f"b{j}")) for i in range(k) for j in range(width)]
    return Instance(facts)


FAMILIES = {
    **{f"path-{n}": (directed_path_instance, n) for n in (60, 120, 240)},
    **{f"ktree-{n}": (lambda n: labelled_partial_ktree_instance(n, 2), n) for n in (60, 120, 250)},
    **{f"rst-line-{n}": (rst_chain_instance, n) for n in (120, 240, 480)},
    "grid-5x5": (lambda n: grid_instance(n, n), 5),
    "lifted-150": (_lifted_family, 150),
}


def _decimal_valuation(facts, seed):
    generator = random.Random(seed)
    return {f: Fraction(generator.randint(0, 1000), 1000) for f in facts}


def check_fixed_inputs():
    for case in random_workload(300, seed=2024, max_facts=40):
        instance = case.tid.instance
        assert_matches_seed(instance.facts, case.tid.valuation(), signature=instance.signature)
    for name, (build, size) in FAMILIES.items():
        instance = build(size)
        # Declared signature with a uniform default, then an inferred
        # signature with one explicit decimal probability per fact.
        assert_matches_seed(instance.facts, default=Fraction(1, 2), signature=instance.signature)
        assert_matches_seed(instance.facts, _decimal_valuation(instance.facts, size))


# ``x + 0.0`` turns -0.0 into 0.0: equal elements of one type that render
# differently are outside the fingerprint's contract.
floats = st.floats(allow_nan=False).map(lambda x: x + 0.0) | st.sampled_from([0.0, 1.0])
elements = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.just(True),
    floats,
    st.just("1"),
    st.tuples(st.integers(-2, 2), st.sampled_from(["a", "1"])),
)
mixed_facts = st.lists(
    st.one_of(
        st.builds(lambda a: fact("R", a), elements),
        st.builds(lambda a, b: fact("S", a, b), elements, elements),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None, database=None)
@given(facts=mixed_facts)
def check_mixed_elements(facts):
    assert_matches_seed(facts)
    assert_matches_seed(facts, {f: Fraction(i % 5, 4) for i, f in enumerate(facts)})


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_input_stage_matches_the_seed_under_hash_seed(hash_seed):
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, str(HERE)], env=env, capture_output=True, text=True, timeout=110
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "identity holds" in result.stdout


def test_pinned_seed_digests():
    assert directed_path_instance(4).fingerprint == (
        "7ba44783008f40c7a960055d4abd2fc228335342b3f133f9f9d4e67c166b9361"
    )
    mixed = Instance(
        [
            fact("R", 1),
            fact("R", "1"),
            fact("R", (1, "a")),
            fact("R", None),
            fact("S", "b", 1),
            fact("S", True, 0),
            fact("S", 1.5, -3),
        ]
    )
    assert mixed.fingerprint == "3d45fffdf59f0600b1362c0f50fd6a0d14073c33d83cfcf997d1063e4b71cc63"
    valuation = {f: Fraction(i + 1, 7) for i, f in enumerate(mixed.facts)}
    assert ProbabilisticInstance(mixed, valuation).fingerprint == (
        "e873059351c5de856a1c4f7aeb9c7d616273295ac8edd3a8297b2fadb9be0d76"
    )


def test_unknown_facts_are_reported_like_the_seed():
    instance = Instance([fact("R", "a"), fact("R", "b")])
    valuation = {fact("R", "a"): Fraction(1, 2), fact("R", "c"): 1, fact("T", "d"): 1}
    with pytest.raises(ProbabilityError) as seed_error:
        input_stage_seed(instance.facts, valuation)
    with pytest.raises(ProbabilityError) as error:
        ProbabilisticInstance(instance, valuation)
    assert str(error.value) == str(seed_error.value)
    # Unknown facts are named ahead of an invalid probability, as before.
    valuation[fact("R", "b")] = 2
    with pytest.raises(ProbabilityError, match="not in the instance"):
        ProbabilisticInstance(instance, valuation)


def test_membership_is_an_index_lookup():
    instance = Instance([fact("R", "a"), fact("S", "a", 1), fact("S", "b", True)])
    assert fact("R", "a") in instance
    assert fact("S", "b", 1) in instance  # True == 1, as for the seed's set
    assert fact("S", "a", 2) not in instance
    assert fact("T", "a") not in instance
    assert ("R", ("a",)) not in instance
    positions = instance.fact_positions("S")
    assert {instance.facts[p]: p for p in positions.values()} == {
        f: instance.facts.index(f) for f in instance.facts_of("S")
    }


if __name__ == "__main__":
    check_fixed_inputs()
    check_mixed_elements()
    print(f"identity holds under PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}")
