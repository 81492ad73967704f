"""A synthetic referenced street map for a Turin-like city.

The paper's geospatial cleaning step compares EPC addresses against "a
referenced street map ... containing all the detailed information on
streets, including street names, house numbers, ZIP Code and geolocation"
(Section 2.1.1), concretely the open gazetteer published by the municipality
of Turin.  That dataset is not available offline, so this module generates a
deterministic stand-in with the same structure:

* a city polygon centred on Turin (45.07 N, 7.68 E) tiled into **8 districts**
  (Turin's real *circoscrizioni*) and **26 named neighbourhoods**;
* ~1000+ streets with Italian odonym morphology (*via/corso/piazza* +
  person/place names), each a segment inside one neighbourhood;
* per-street civic numbers with individual (lat, lon) positions and the
  neighbourhood's ZIP code.

Everything is a pure function of the seed, so cleaning experiments are
reproducible and ground truth (which gazetteer entry an EPC really points
at) is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geo.regions import Granularity, Region, RegionHierarchy
from ..text.levenshtein import GazetteerIndex
from ..text.normalize import normalize_address

__all__ = ["AddressRecord", "StreetMap", "generate_street_map", "turin_like_hierarchy"]

#: City centre used for the synthetic layout (Turin).
CITY_CENTER = (45.0703, 7.6869)
#: Half-extents of the city rectangle in degrees (approx 13 km x 14 km).
CITY_HALF_LAT = 0.058
CITY_HALF_LON = 0.088

_STREET_KINDS = ("via", "via", "via", "via", "corso", "corso", "piazza", "viale", "largo", "strada", "vicolo")

_NAME_POOL = (
    "roma", "garibaldi", "cavour", "mazzini", "verdi", "dante", "petrarca",
    "leopardi", "manzoni", "carducci", "pascoli", "foscolo", "alfieri",
    "gramsci", "matteotti", "gobetti", "einaudi", "galilei", "volta",
    "marconi", "fermi", "meucci", "torricelli", "avogadro", "lagrange",
    "cristoforo colombo", "amerigo vespucci", "marco polo", "duca degli abruzzi",
    "vittorio emanuele", "umberto", "re umberto", "regina margherita",
    "principe amedeo", "duchessa jolanda", "emanuele filiberto",
    "san francesco", "santa teresa", "san massimo", "santa giulia",
    "san donato", "santa rita", "san paolo", "san secondo", "sant ambrogio",
    "madonna di campagna", "gran madre", "superga", "monviso", "monte rosa",
    "gran paradiso", "cervino", "monte bianco", "dora riparia", "stura",
    "sangone", "po", "tanaro", "bormida", "orco", "pellice", "chisone",
    "milano", "genova", "venezia", "firenze", "bologna", "napoli", "palermo",
    "cagliari", "trieste", "trento", "bolzano", "aosta", "cuneo", "asti",
    "alessandria", "novara", "vercelli", "biella", "ivrea", "pinerolo",
    "moncalieri", "rivoli", "chieri", "carmagnola", "savigliano", "saluzzo",
    "fratelli bandiera", "fratelli rosselli", "quattro marzo", "venti settembre",
    "ventiquattro maggio", "primo maggio", "due giugno", "otto marzo",
    "della repubblica", "della liberta", "della pace", "dell unita",
    "dei mille", "delle alpi", "del carmine", "della consolata",
    "nizza", "lingotto", "mirafiori", "vanchiglia", "aurora", "barriera",
    "campidoglio", "cenisia", "crocetta", "parella", "pozzo strada",
    "san salvario", "vallette", "falchera", "regio parco", "borgo vittoria",
    "giuseppe giacosa", "guido reni", "tiziano", "caravaggio", "botticelli",
    "michelangelo", "raffaello", "leonardo da vinci", "donatello",
    "bernini", "borromini", "juvarra", "guarini", "antonelli", "mollino",
    "gioberti", "rosmini", "beccaria", "vico", "machiavelli", "guicciardini",
    "de gasperi", "pertini", "saragat", "nenni", "togliatti", "berlinguer",
    "salvo d acquisto", "nino bixio", "pietro micca", "paleocapa",
    "sacchi", "magenta", "solferino", "san martino", "curtatone", "montanara",
    "goito", "palestro", "varese", "legnano", "aspromonte", "calatafimi",
    "bezzecca", "mentana", "villafranca", "custoza", "lissa", "adua",
)

#: Turin's eight administrative districts (circoscrizioni).
_DISTRICT_NAMES = (
    "Circoscrizione 1 Centro",
    "Circoscrizione 2 Santa Rita",
    "Circoscrizione 3 San Paolo",
    "Circoscrizione 4 San Donato",
    "Circoscrizione 5 Borgo Vittoria",
    "Circoscrizione 6 Barriera di Milano",
    "Circoscrizione 7 Aurora",
    "Circoscrizione 8 San Salvario",
)

#: 26 statistical neighbourhoods, grouped under their district index.
_NEIGHBOURHOOD_NAMES: dict[int, tuple[str, ...]] = {
    0: ("Centro", "Crocetta", "Quadrilatero"),
    1: ("Santa Rita", "Mirafiori Nord", "Mirafiori Sud"),
    2: ("San Paolo", "Cenisia", "Pozzo Strada"),
    3: ("San Donato", "Campidoglio", "Parella"),
    4: ("Borgo Vittoria", "Madonna di Campagna", "Vallette"),
    5: ("Barriera di Milano", "Falchera", "Regio Parco"),
    6: ("Aurora", "Vanchiglia", "Madonna del Pilone"),
    7: ("San Salvario", "Nizza Millefonti", "Lingotto", "Borgo Po", "Cavoretto"),
}


@dataclass(frozen=True)
class AddressRecord:
    """One gazetteer entry: a civic number on a street."""

    street: str
    house_number: str
    zip_code: str
    latitude: float
    longitude: float
    district: str
    neighbourhood: str

    @property
    def full_address(self) -> str:
        """Street plus civic number."""
        return f"{self.street} {self.house_number}"


@dataclass
class StreetMap:
    """The referenced street map: streets, civics, ZIPs and geolocation.

    ``records`` is the flat gazetteer; ``street_names`` the distinct street
    names.  The bit-parallel Levenshtein index over the street names is
    built lazily and cached on the instance (:meth:`match_index`): building
    it costs one pass over the gazetteer, and every
    :class:`~repro.preprocessing.address_cleaner.AddressCleaner` sharing
    this map then reuses the same index.
    """

    records: list[AddressRecord] = field(default_factory=list)
    _match_index: GazetteerIndex | None = field(
        default=None, repr=False, compare=False
    )

    def street_names(self) -> list[str]:
        """Distinct street names, sorted, as stored (already normalized)."""
        return sorted({r.street for r in self.records})

    def records_by_street(self) -> dict[str, list[AddressRecord]]:
        """Mapping street name -> its civic-number records."""
        by_street: dict[str, list[AddressRecord]] = {}
        for rec in self.records:
            by_street.setdefault(rec.street, []).append(rec)
        return by_street

    def match_index(self) -> GazetteerIndex:
        """The cached :class:`GazetteerIndex` over :meth:`street_names`.

        Candidate order inside the index matches :meth:`street_names`, so
        matched indices can be mapped straight back to street names.  The
        cache assumes ``records`` is not mutated after the first call (the
        generator builds maps once and the pipeline treats them as
        read-only).
        """
        if self._match_index is None or len(self._match_index) != len(
            set(r.street for r in self.records)
        ):
            self._match_index = GazetteerIndex(self.street_names())
        return self._match_index

    def __len__(self) -> int:
        return len(self.records)


def _rect(lat0: float, lon0: float, lat1: float, lon1: float) -> list[tuple[float, float]]:
    return [(lat0, lon0), (lat0, lon1), (lat1, lon1), (lat1, lon0)]


def turin_like_hierarchy() -> RegionHierarchy:
    """The synthetic city's administrative hierarchy.

    The city rectangle is tiled by a 4x2 grid of districts; each district is
    split vertically into its neighbourhoods.  The layout is deterministic
    (no randomness) so region names are stable across seeds.
    """
    c_lat, c_lon = CITY_CENTER
    lat_lo, lat_hi = c_lat - CITY_HALF_LAT, c_lat + CITY_HALF_LAT
    lon_lo, lon_hi = c_lon - CITY_HALF_LON, c_lon + CITY_HALF_LON
    city = Region("Turin", Granularity.CITY, _rect(lat_lo, lon_lo, lat_hi, lon_hi))

    districts: list[Region] = []
    neighbourhoods: list[Region] = []
    n_rows, n_cols = 2, 4
    dlat = (lat_hi - lat_lo) / n_rows
    dlon = (lon_hi - lon_lo) / n_cols
    for idx, name in enumerate(_DISTRICT_NAMES):
        row, col = divmod(idx, n_cols)
        d_lat0 = lat_lo + row * dlat
        d_lon0 = lon_lo + col * dlon
        district = Region(
            name, Granularity.DISTRICT,
            _rect(d_lat0, d_lon0, d_lat0 + dlat, d_lon0 + dlon),
            parent=city.name,
        )
        districts.append(district)
        names = _NEIGHBOURHOOD_NAMES[idx]
        slice_lon = dlon / len(names)
        for j, n_name in enumerate(names):
            ring = _rect(
                d_lat0, d_lon0 + j * slice_lon,
                d_lat0 + dlat, d_lon0 + (j + 1) * slice_lon,
            )
            neighbourhoods.append(
                Region(n_name, Granularity.NEIGHBOURHOOD, ring, parent=name)
            )
    return RegionHierarchy(city=city, districts=districts, neighbourhoods=neighbourhoods)


def _zip_codes(neighbourhoods: list[Region]) -> dict[str, str]:
    """Assign one Turin-style ZIP (CAP 101xx) per neighbourhood."""
    return {
        region.name: f"101{21 + i:02d}" for i, region in enumerate(neighbourhoods)
    }


def generate_street_map(
    seed: int = 2322, streets_per_neighbourhood: int = 42
) -> tuple[StreetMap, RegionHierarchy]:
    """Generate the referenced street map and the region hierarchy.

    Each street is a straight segment fully inside one neighbourhood, with
    civic numbers 1..N spaced along it (odd/even on alternating sides, as in
    Italian numbering).  Street names are unique city-wide, matching how the
    real Turin gazetteer disambiguates.
    """
    rng = np.random.default_rng(seed)
    hierarchy = turin_like_hierarchy()
    zips = _zip_codes(hierarchy.neighbourhoods)

    # Build the pool of unique street names.
    combos = [
        f"{kind} {name}" for name in _NAME_POOL for kind in dict.fromkeys(_STREET_KINDS)
    ]
    rng.shuffle(combos)
    needed = streets_per_neighbourhood * len(hierarchy.neighbourhoods)
    if needed > len(combos):
        raise ValueError(
            f"name pool too small: need {needed} streets, have {len(combos)}"
        )

    records: list[AddressRecord] = []
    name_cursor = 0
    for region in hierarchy.neighbourhoods:
        lo_lat, lo_lon, hi_lat, hi_lon = region.bounding_box()
        pad_lat = (hi_lat - lo_lat) * 0.06
        pad_lon = (hi_lon - lo_lon) * 0.06
        for _ in range(streets_per_neighbourhood):
            street = normalize_address(combos[name_cursor])
            name_cursor += 1
            start_lat = rng.uniform(lo_lat + pad_lat, hi_lat - pad_lat)
            start_lon = rng.uniform(lo_lon + pad_lon, hi_lon - pad_lon)
            angle = rng.uniform(0, np.pi)
            length_deg = rng.uniform(0.002, 0.008)
            end_lat = np.clip(
                start_lat + length_deg * np.sin(angle), lo_lat + pad_lat, hi_lat - pad_lat
            )
            end_lon = np.clip(
                start_lon + length_deg * np.cos(angle), lo_lon + pad_lon, hi_lon - pad_lon
            )
            n_civics = int(rng.integers(6, 40))
            side_offset = 0.00012  # ~13 m between street sides
            for civic in range(1, n_civics + 1):
                t = civic / (n_civics + 1)
                side = 1.0 if civic % 2 else -1.0
                lat = start_lat + t * (end_lat - start_lat) + side * side_offset
                lon = start_lon + t * (end_lon - start_lon)
                records.append(
                    AddressRecord(
                        street=street,
                        house_number=str(civic),
                        zip_code=zips[region.name],
                        latitude=float(lat),
                        longitude=float(lon),
                        district=region.parent or "",
                        neighbourhood=region.name,
                    )
                )
    return StreetMap(records=records), hierarchy
