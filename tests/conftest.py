import random

import pytest

from flexrsa.model import Demand, Link, OpticalNetwork, RestorationInstance


def make_network(nodes, links, available, slot_count):
    return OpticalNetwork(nodes, links, available, slot_count)


@pytest.fixture
def t1():
    """Triangle: route around the long edge; reach forbids the direct one."""
    links = [
        Link(1, 1, 2, 1.0),
        Link(2, 2, 3, 1.0),
        Link(3, 1, 3, 3.0),
    ]
    net = make_network([1, 2, 3], links, {1: [1, 2], 2: [1, 2], 3: [1, 2]}, 2)
    return RestorationInstance(net, (Demand(1, 1, 3, 1, 2.0),))


@pytest.fixture
def t2():
    """Two-hop path with color 1 occupied on the second link."""
    links = [Link(1, 1, 2, 1.0), Link(2, 2, 3, 1.0)]
    net = make_network([1, 2, 3], links, {1: [1, 2, 3], 2: [2, 3]}, 3)
    return RestorationInstance(net, (Demand(2, 1, 3, 2, 5.0),))


@pytest.fixture
def t3():
    """Two demands fighting over a single slot."""
    links = [Link(1, 1, 2, 1.0)]
    net = make_network([1, 2], links, {1: [1]}, 1)
    return RestorationInstance(
        net, (Demand(1, 1, 2, 1, 10.0), Demand(2, 1, 2, 1, 10.0))
    )


@pytest.fixture
def t4():
    """Free 4-slot spectrum; width-2 demand exercises the contiguity tail."""
    links = [Link(1, 1, 2, 1.0), Link(2, 2, 3, 1.0)]
    net = make_network([1, 2, 3], links, {1: [1, 2, 3, 4], 2: [1, 2, 3, 4]}, 4)
    return RestorationInstance(net, (Demand(4, 1, 3, 2, 5.0),))


@pytest.fixture
def contested_link():
    """Triangle where link 1-3 has only color 1 free, and two width-1
    demands 1->3 at reach 5. The hop bound is 2, but only one demand can
    take the direct link: first-fit puts the second on 1-2-3, and the
    optimum, 3, needs the MILP."""
    links = [
        Link(1, 1, 2, 1.0),
        Link(2, 2, 3, 1.0),
        Link(3, 1, 3, 1.0),
    ]
    net = make_network([1, 2, 3], links, {1: [1, 2], 2: [1, 2], 3: [1]}, 2)
    return RestorationInstance(
        net, (Demand(1, 1, 3, 1, 5.0), Demand(2, 1, 3, 1, 5.0))
    )


@pytest.fixture
def t1_low_reach(t1):
    """T1 with the reach lowered below the shortest route."""
    return RestorationInstance(t1.network, (Demand(1, 1, 3, 1, 1.5),))


@pytest.fixture
def two_route_reach():
    """One demand a->c at reach 0.3 km over a-b-c (0.1 + 0.2 km) or a-d-e-c
    (3 x 0.05 km). In floats 0.1 + 0.2 > 0.3, so the 2-hop route sits on
    the reach boundary."""
    links = [
        Link(1, "a", "b", 0.1),
        Link(2, "b", "c", 0.2),
        Link(3, "a", "d", 0.05),
        Link(4, "d", "e", 0.05),
        Link(5, "e", "c", 0.05),
    ]
    net = make_network(list("abcde"), links, {l.id: [1] for l in links}, 1)
    return RestorationInstance(net, (Demand(1, "a", "c", 1, 0.3),))


@pytest.fixture
def cut_off_window():
    """One width-3 demand a->c over a-b-c (free b-c: colors 1-3) or a-b-d-c
    (free b-d, d-c: colors 3-5). Trimming keeps arc a->b at first colors
    {1, 3}, with a gap at 2; the optimum is a-b-c at color 1, 6 slots."""
    links = [
        Link(1, "a", "b", 1.0),
        Link(2, "b", "c", 1.0),
        Link(3, "b", "d", 1.0),
        Link(4, "d", "c", 1.0),
    ]
    free = {1: [1, 2, 3, 4, 5], 2: [1, 2, 3], 3: [3, 4, 5], 4: [3, 4, 5]}
    net = make_network(list("abcd"), links, free, 5)
    return RestorationInstance(net, (Demand(1, "a", "c", 3, 10.0),))


def corpus_instances(count=200, base_seed=1000):
    from flexrsa.oracle import random_instance

    out = []
    for i in range(count):
        rng = random.Random(base_seed + i)
        out.append((base_seed + i, random_instance(rng)))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return corpus_instances(count=40)
