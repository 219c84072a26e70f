import pytest

from partition_oracles import (
    SetPartition,
    SizeGuardError,
    bell_number,
    integer_partitions,
    join,
    mobius_from_bottom,
    set_partitions,
)


def test_bell_numbers():
    assert [bell_number(j) for j in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_enumeration_counts_and_determinism():
    assert len(set_partitions(3)) == 5
    assert set_partitions(4) == set_partitions(4)
    for j in range(1, 7):
        parts = set_partitions(j)
        assert len(parts) == bell_number(j)
        assert len(set(parts)) == len(parts)


def test_bottom_and_top():
    assert SetPartition.bottom(3).blocks == ((1,), (2,), (3,))
    assert SetPartition.top(3).blocks == ((1, 2, 3),)
    assert SetPartition.top(3).is_top()


def test_join():
    bottom = SetPartition.bottom(3)
    pi = SetPartition.from_blocks(3, [[1, 2], [3]])
    assert join(bottom, pi) == pi
    rho = SetPartition.from_blocks(3, [[2, 3], [1]])
    assert join(pi, rho) == SetPartition.top(3)
    assert join(pi, pi) == pi


def test_mobius_values():
    assert mobius_from_bottom(SetPartition.bottom(4)) == 1
    assert mobius_from_bottom(SetPartition.top(4)) == -6  # (-1)^3 * 3!
    pi = SetPartition.from_blocks(4, [[1, 2], [3, 4]])
    assert mobius_from_bottom(pi) == 1
    pi = SetPartition.from_blocks(4, [[1, 2, 3], [4]])
    assert mobius_from_bottom(pi) == 2


def test_mobius_falling_factorial_identity():
    # sum over partitions of mu(0, pi) x^{|pi|} = x(x-1)...(x-j+1)
    for j in range(1, 9):
        parts = set_partitions(j)
        for x in (1, 2, 5):
            total = sum(mobius_from_bottom(p) * x ** p.num_blocks for p in parts)
            falling = 1
            for i in range(j):
                falling *= x - i
            assert total == falling
        if j >= 2:
            assert sum(mobius_from_bottom(p) for p in parts) == 0


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2], [2, 3]])


def test_size_guard():
    with pytest.raises(SizeGuardError):
        set_partitions(13)


def test_integer_partitions():
    parts = integer_partitions(4)
    # descending largest part, multiplicities as (part, count) with parts ascending
    assert parts == [
        ((4, 1),),
        ((1, 1), (3, 1)),
        ((2, 2),),
        ((1, 2), (2, 1)),
        ((1, 4),),
    ]
    assert len(integer_partitions(7)) == 15
    for partition in integer_partitions(6):
        assert sum(part * mult for part, mult in partition) == 6
