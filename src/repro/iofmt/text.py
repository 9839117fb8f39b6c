"""Line- and CSV-oriented input formats over the distributed file system.

The split/line-boundary semantics are Hadoop's classic ones: splits are byte
ranges; a reader whose split starts mid-file discards the first (partial)
line, and every reader finishes the line that straddles its split's end.
Together the readers of a file yield each line exactly once.
"""

from dataclasses import dataclass

from repro.hdfs.filesystem import DistributedFileSystem
from repro.iofmt.inputformat import InputFormat, InputSplit, JobConf, RecordReader

MIN_SPLIT_BYTES = 64 * 1024


@dataclass(frozen=True)
class FileSplit(InputSplit):
    """A byte range of one DFS file, with replica hosts for locality."""

    path: str
    start: int
    split_length: int
    hosts: tuple[str, ...] = ()

    def locations(self) -> tuple[str, ...]:
        return self.hosts

    def length(self) -> int:
        return self.split_length


class LineRecordReader(RecordReader):
    """Yields text lines of one :class:`FileSplit` per Hadoop semantics.

    The reader keeps a cursor into one buffer of file bytes and decodes
    every run of complete lines with a single ``decode``/``split``, so a
    split costs time linear in its length.  Splitting undecoded bytes at
    newlines is safe: no UTF-8 multi-byte sequence contains the newline
    byte, so a character straddling a fill boundary stays buffered until
    its line completes.
    """

    def __init__(self, dfs: DistributedFileSystem, split: FileSplit, client_ip: str | None = None):
        self._split = split
        self._reader = dfs.open(split.path, client_ip=client_ip)
        self._reader.seek(split.start)
        self._buffer = bytearray()
        self._pos = 0  # cursor: buffer bytes before it are consumed
        self._eof = False
        self._consumed = 0  # bytes of the file consumed past split.start
        if split.start > 0:
            self._discard_partial_first_line()

    def __iter__(self):
        # Hadoop's rule: keep reading while the line *starts* at a position
        # <= the split end (so the line straddling — or starting exactly at —
        # the boundary is read here); the next split's reader discards its
        # first partial line, which is exactly that one.  Net effect: every
        # line of the file is yielded by exactly one reader.
        limit = self._split.split_length
        while self._consumed <= limit:
            buf, pos = self._buffer, self._pos
            end = buf.rfind(b"\n", pos)
            if end < 0:
                if self._fill():
                    continue
                if pos < len(buf):  # the file's last line has no newline
                    self._consumed += len(buf) - pos
                    self._pos = len(buf)
                    yield buf[pos:].decode("utf-8")
                return
            # The last line to read here starts at buffer index last_start
            # or before; it ends at the first newline from there on.
            last_start = pos + limit - self._consumed
            if last_start < end:
                end = buf.find(b"\n", last_start)
            self._consumed += end + 1 - pos
            self._pos = end + 1
            yield from buf[pos:end].decode("utf-8").split("\n")

    def close(self) -> None:
        self._reader.close()

    # ------------------------------------------------------------- internals

    def _fill(self) -> bool:
        """Append the next 64 KB of the file, dropping consumed bytes."""
        if self._eof:
            return False
        chunk = self._reader.read(64 * 1024)
        if not chunk:
            self._eof = True
            return False
        del self._buffer[: self._pos]
        self._pos = 0
        self._buffer += chunk
        return True

    def _discard_partial_first_line(self) -> None:
        while True:
            end = self._buffer.find(b"\n", self._pos)
            if end >= 0:
                self._consumed += end + 1 - self._pos
                self._pos = end + 1
                return
            if not self._fill():
                self._consumed += len(self._buffer) - self._pos
                self._pos = len(self._buffer)
                return


class TextInputFormat(InputFormat):
    """Splits DFS text files into byte ranges and reads them line by line.

    Required configuration: ``input.path`` property (file or directory) and
    a ``dfs`` object.  Optional: ``client.ip`` for replica locality of the
    reading process.
    """

    def get_splits(self, conf: JobConf, num_splits: int) -> list[InputSplit]:
        dfs: DistributedFileSystem = conf.require_object("dfs")
        path = conf.get("input.path")
        if path is None:
            raise ValueError("TextInputFormat requires the 'input.path' property")
        files = dfs.list_files(path)
        total = sum(dfs.status(f).length for f in files)
        if total == 0 or num_splits < 1:
            return []
        target = max(total // num_splits, MIN_SPLIT_BYTES, 1)
        splits: list[InputSplit] = []
        for file_path in files:
            length = dfs.status(file_path).length
            locations = dfs.block_locations(file_path)
            offset = 0
            while offset < length:
                chunk = min(target, length - offset)
                # Hadoop's 1.1 slack rule: avoid a tiny tail split.
                if length - offset - chunk < target * 0.1:
                    chunk = length - offset
                hosts = self._hosts_for(locations, offset)
                splits.append(FileSplit(file_path, offset, chunk, hosts))
                offset += chunk
        return splits

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        dfs: DistributedFileSystem = conf.require_object("dfs")
        if not isinstance(split, FileSplit):
            raise TypeError(f"TextInputFormat cannot read {type(split).__name__}")
        return LineRecordReader(dfs, split, client_ip=conf.get("client.ip"))

    @staticmethod
    def _hosts_for(locations, offset: int) -> tuple[str, ...]:
        for loc in locations:
            if loc.offset <= offset < loc.offset + loc.length:
                return loc.hosts
        return ()


class CsvRecordReader(RecordReader):
    """Wraps a line reader, splitting each line on a delimiter."""

    def __init__(self, inner: RecordReader, delimiter: str):
        self._inner = inner
        self._delimiter = delimiter

    def __iter__(self):
        for line in self._inner:
            if line:
                yield line.split(self._delimiter)

    def close(self) -> None:
        self._inner.close()


class CsvInputFormat(TextInputFormat):
    """Text format whose records are delimiter-split field lists.

    Optional property ``csv.delimiter`` (default ``,``).
    """

    def create_record_reader(self, split: InputSplit, conf: JobConf) -> RecordReader:
        inner = super().create_record_reader(split, conf)
        return CsvRecordReader(inner, conf.get("csv.delimiter", ","))
