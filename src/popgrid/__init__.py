"""popgrid: dasymetric population disaggregation onto a square tile grid.

Census counts attached to admin polygons are spread over 30 m tiles in
proportion to built-up pixel counts, after removing tiles that a POI
density rule marks as non-residential.
"""

from .errors import (
    AlignmentError,
    ConfigurationError,
    FormatError,
    GenerationError,
    GeometryError,
    LevelMismatchError,
    ParameterError,
    ParseError,
    PopgridError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from .geo import BBox, Point, Polygon, TileGrid, point_in_polygon
from .io import (
    AdminLevel,
    AdminUnit,
    BinaryRaster,
    PopulationGrid,
    Raster,
    read_admin_units,
    read_ascii_grid,
    read_poi,
    write_ascii_grid,
)
from .poi_filter import PoiSet, TileMask, compute_tile_mask
from .disaggregate import (
    AllocationReport,
    PixelAssignment,
    allocate,
    assign_pixels,
    run_disaggregation,
)
from .evaluate import ConfusionCounts, confusion, downsample_to_tiles, metrics, zonal_stats
from .synth import GroundTruth, ScenarioSpec, generate, score

__version__ = "0.1.0"

__all__ = [
    "AdminLevel",
    "AdminUnit",
    "AlignmentError",
    "AllocationReport",
    "BBox",
    "BinaryRaster",
    "ConfigurationError",
    "ConfusionCounts",
    "FormatError",
    "GenerationError",
    "GeometryError",
    "GroundTruth",
    "LevelMismatchError",
    "ParameterError",
    "ParseError",
    "PixelAssignment",
    "Point",
    "PoiSet",
    "Polygon",
    "PopgridError",
    "PopulationGrid",
    "Raster",
    "ScenarioSpec",
    "SchemaError",
    "TileGrid",
    "TileMask",
    "TruncationError",
    "ValidationError",
    "allocate",
    "assign_pixels",
    "compute_tile_mask",
    "confusion",
    "downsample_to_tiles",
    "generate",
    "metrics",
    "point_in_polygon",
    "read_admin_units",
    "read_ascii_grid",
    "read_poi",
    "run_disaggregation",
    "score",
    "write_ascii_grid",
    "zonal_stats",
]
