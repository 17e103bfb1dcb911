import itertools

import pytest

from klcells.dihedral import DihedralGroup


def flag_permutation(n: int, word: str) -> tuple[int, ...]:
    """Independent model of D_2n: permutations of Z_2n with s: i -> -i and
    t: i -> 2 - i.  Faithful for every n >= 2, so equality of permutations is
    equality in the group."""
    image = list(range(2 * n))
    for letter in reversed(word.replace("e", "")):
        if letter == "s":
            image = [(-i) % (2 * n) for i in image]
        else:
            image = [(2 - i) % (2 * n) for i in image]
    return tuple(image)


@pytest.fixture(scope="session")
def flag_tables():
    """For each small n: map from flag permutation to canonical element."""
    tables = {}
    for n in range(2, 9):
        group = DihedralGroup(n)
        table = {}
        for el in group.elements():
            table[flag_permutation(n, group.word(el))] = el
        assert len(table) == 2 * n  # the model is faithful
        tables[n] = table
    return tables


def all_words(letters: str, max_len: int):
    for length in range(max_len + 1):
        yield from ("".join(w) for w in itertools.product(letters, repeat=length))


def cell_of(cells, kind, label):
    """The index of the cell of the given kind that holds label."""
    return next(i for i, cell in enumerate(getattr(cells, kind)) if label in cell)


# ring files of two rings whose product x*x has an e term, so that the zero
# module breaks a ring relation, and the candidate keys classify must list
# for each without s-rigidity: Fibonacci (x*x = e + x) and Z/2 (x*x = e)
ZERO_FREE_RINGS = {
    "fibonacci": (
        "labels e x\nidentity e\nc e e e 1\nc e x x 1\nc x e x 1\nc x x e 1\nc x x x 1\n",
        [(2, ((0, 1, 1, 1),))],
    ),
    "z2": (
        "labels e x\nidentity e\nc e e e 1\nc e x x 1\nc x e x 1\nc x x e 1\n",
        [(1, ((1,),))],
    ),
}
