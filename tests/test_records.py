"""The input bundles are frozen records: built by position or keyword, checked on
every build (``_replace`` included), immutable, and compared, hashed and
printed by their field values."""

import math

import numpy as np
import pytest

from resbeam import (
    CavityGeometry,
    Dataset,
    DistanceIntervals,
    GainParams,
    PvParams,
    RunConfig,
    SweepSpec,
    SystemParams,
    UnitError,
    emit_dataset,
    parse_config,
    render_config,
    sweep,
)

GEOMETRY = (0.06, 0.88, -1.0, 5.246612466124661)
GAIN = (0.2849, 1.0, -5.64, 0.88)
PV = (0.3487, -1.535)
LINK = (CavityGeometry(*GEOMETRY), GainParams(*GAIN), PvParams(*PV),
        0.0007855301511370797, 1.064e-06, 1.0, 100.0)

GEOMETRY_REPR = "CavityGeometry(l=0.06, f=0.88, r1=-1.0, r2=5.246612466124661)"
LINK_REPR = (f"SystemParams(geometry={GEOMETRY_REPR}, "
             "gain=GainParams(eta_stored=0.2849, m_overlap=1.0, c=-5.64, r_out=0.88), "
             "pv=PvParams(a1=0.3487, b1=-1.535), aperture_radius=0.0007855301511370797, "
             "wavelength=1.064e-06, d=1.0, p_in=100.0)")

# class -> (field values, a field and a value outside its range, the repr of the record)
BUNDLES = {
    CavityGeometry: (GEOMETRY, ("r1", 0.0), GEOMETRY_REPR),
    DistanceIntervals: ((((0.0, 1.0), (2.0, 3.0)),), ("intervals", ((1.0, 0.5),)),
                        "DistanceIntervals(intervals=((0.0, 1.0), (2.0, 3.0)))"),
    GainParams: (GAIN, ("r_out", 1.0),
                 "GainParams(eta_stored=0.2849, m_overlap=1.0, c=-5.64, r_out=0.88)"),
    PvParams: (PV, ("a1", 1.0), "PvParams(a1=0.3487, b1=-1.535)"),
    SystemParams: (LINK, ("d", -1.0), LINK_REPR),
    RunConfig: ((*GEOMETRY, 1.0, 0.0007855301511370797, 1.064e-06, *GAIN, *PV), ("eta_stored", 1.5),
                "RunConfig(l=0.06, f=0.88, r1=-1.0, r2=5.246612466124661, d=1.0, "
                "a=0.0007855301511370797, wavelength=1.064e-06, eta_stored=0.2849, m_overlap=1.0, "
                "c=-5.64, r_out=0.88, a1=0.3487, b1=-1.535)"),
    SweepSpec: (("d", (0.5, 1.0), SystemParams(*LINK)), ("variable", "q"),
                f"SweepSpec(variable='d', grid=(0.5, 1.0), fixed={LINK_REPR})"),
}


@pytest.mark.parametrize("cls", BUNDLES, ids=lambda cls: cls.__name__)
def test_bundle_is_a_checked_frozen_record(cls):
    values, (bad_key, bad_value), text = BUNDLES[cls]
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    assert record._asdict() == dict(zip(cls._fields, values))
    assert [getattr(record, name) for name in cls._fields] == list(values)
    assert repr(record) == text

    # _replace builds a new record, and so checks it again
    assert record._replace() == record and record._replace() is not record
    with pytest.raises(UnitError) as err:
        record._replace(**{bad_key: bad_value})
    assert err.value.key == bad_key

    for build in (lambda: cls(*values, None), lambda: cls(*values, unknown=1.0),
                  lambda: record._replace(unknown=1.0)):
        with pytest.raises(TypeError):
            build()
    if not cls._field_defaults:
        with pytest.raises(TypeError):
            cls(*values[:-1])

    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[0]

    assert hash(record) == hash(cls(*values)) == hash(tuple(values))
    assert record != tuple(values)
    assert (record != cls(*values)) is False


@pytest.mark.parametrize("points", [
    lambda: (x for x in (0.5, 1.0)), lambda: [0.5, 1.0], lambda: np.array([0.5, 1.0]),
], ids=["generator", "list", "array"])
def test_sweep_spec_keeps_the_tuple_it_checked(points):
    grid, link = points(), SystemParams(*LINK)
    spec = SweepSpec("d", grid, link)
    assert spec.grid == (0.5, 1.0) and {type(x) for x in spec.grid} == {float}
    assert hash(spec) == hash(SweepSpec("d", (0.5, 1.0), link))
    if hasattr(grid, "__setitem__"):  # a list or an array, changed after the check
        grid[1] = math.nan
    assert sweep(spec).columns["d_m"] == [0.5, 1.0]


def test_distance_intervals_keep_the_tuple_they_checked():
    pairs = [(0.0, 1.0), (2.0, 3.0)]
    records = [DistanceIntervals(iter(pairs)), DistanceIntervals(pairs)]
    pairs.append((0.5, 0.7))  # out of order, after the check
    for record in records:
        assert record.intervals == ((0.0, 1.0), (2.0, 3.0)) and len(record) == 2
        assert hash(record) == hash((record.intervals,))
    checked = ((0.0, 1.0),)
    assert DistanceIntervals(checked).intervals is checked  # a tuple is kept, not copied


def test_distance_intervals_keep_the_pairs_they_checked():
    pair = [0.0, 1.0]
    record = DistanceIntervals([pair, (2.0, 3.0)])
    pair[1] = -5.0  # an empty interval, after the check
    assert record.intervals == ((0.0, 1.0), (2.0, 3.0))
    assert all(type(q) is tuple for q in record.intervals)
    assert hash(record) == hash((record.intervals,))


def test_dataset_keeps_the_flags_it_checked():
    flags = ["a", "b"]
    ds = Dataset({"x": [1.0, 2.0]}, flags)
    flags[0] = "changed"  # after the check
    assert ds.flags == ["a", "b"]
    assert emit_dataset(ds, "csv") == b"x,flag\n1,a\n2,b\n"


def test_run_config_defaults_are_the_reference_link():
    values = BUNDLES[RunConfig][0]
    assert RunConfig() == RunConfig(*values)
    assert RunConfig._field_defaults == dict(zip(RunConfig._fields, values))
    assert RunConfig(0.07).l == 0.07 and RunConfig(b1=-1.0).r2 == 5.246612466124661


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(f=math.inf, r1=math.inf, d=0.0, c=0.0)],
                         ids=["reference", "flat"])
def test_config_text_round_trips(cfg):
    assert parse_config(render_config(cfg)) == cfg
