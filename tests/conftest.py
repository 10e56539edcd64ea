from contextlib import contextmanager

import pytest

import gapforge as gf
from gapforge import errors, maxcover, oracles


@pytest.fixture(scope="session")
def code_suite():
    """Fixed suite used by the collision-bound and threshold-property suites.

    5 Reed-Solomon codes, 6 seeded random codes (q=4, r=2, ell=8), and 2
    codes derived from verified perfect hash families: 13 codes total.
    """
    suite = [
        gf.reed_solomon(2, 1),
        gf.reed_solomon(2, 2),
        gf.reed_solomon(3, 1),
        gf.reed_solomon(3, 2),
        gf.reed_solomon(5, 2),
    ]
    for seed in range(6):
        suite.append(gf.random_code(4, 2, 8, seed))
    suite.append(gf.phf_to_code(gf.find_phf(8, 2, 16, seed=0)))
    suite.append(gf.phf_to_code(gf.find_phf(9, 3, 32, seed=1)))
    return suite


@pytest.fixture(scope="session", autouse=True)
def layout_masks_checked():
    """Every MaxCover row layout the suite builds, checked against summed masks.

    Wraps MaxCoverInstance._lay_out for the session: the first time a shape
    (widths, blocks) is laid out, its low, top and ones masks must equal
    oracles.field_masks_by_sum over the row's fields.  Yields the set of
    shapes checked so far.
    """
    lay_out = maxcover.MaxCoverInstance._lay_out
    checked = set()

    def checked_lay_out(self, widths, blocks):
        lay_out(self, widths, blocks)
        if (widths, blocks) not in checked:
            masks = oracles.field_masks_by_sum(widths * blocks)
            assert (self._low, self._top, self._ones) == masks, (widths, blocks)
            checked.add((widths, blocks))

    maxcover.MaxCoverInstance._lay_out = checked_lay_out
    yield checked
    maxcover.MaxCoverInstance._lay_out = lay_out


@pytest.fixture
def limit():
    """limit(module, name, value): a context in which module reads value for
    errors.name, one of the package's work limits.

    Each search reads its limit from its own module's globals when called,
    so a test pushes a limit at small size by patching that one constant
    where the search reads it: DEFAULT_SUBSET_BUDGET in codes (collision
    searches) or setcover (cover searches), DEFAULT_ENUM_CAP in codes and
    DEFAULT_EDGE_CAP in threshold.  The name must be one that module reads.
    """
    @contextmanager
    def patched(module, name, value):
        assert getattr(module, name) == getattr(errors, name), (module.__name__, name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, value)
            yield

    return patched
