"""In-memory storage: tables and the database object."""

from repro.storage.database import Database
from repro.storage.table_data import Row, TableData

__all__ = ["Database", "Row", "TableData"]
