# repro-lint: path=repro/fixture_sec001.py
"""Clean counterpart: frames decode as JSON, nothing is unpickled."""
import json


def load_frame(blob):
    return json.loads(blob.decode("utf-8"))
