"""DNS wire format and a tiny authoritative server.

DNS is the first small-message protocol the paper names.  This module
implements the RFC 1035 wire format for real — header, questions,
resource records, and name compression on both encode and decode (with
pointer-loop protection) — plus :class:`DnsZone`, a minimal
authoritative responder used by the examples as an application on top
of the UDP receive stack.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from ..errors import ProtocolError

HEADER_LEN = 12
_HEADER = struct.Struct("!HHHHHH")

#: Flag bits within the second header word.
FLAG_QR = 0x8000  # response
FLAG_AA = 0x0400  # authoritative answer
FLAG_RD = 0x0100  # recursion desired
FLAG_RA = 0x0080  # recursion available
RCODE_MASK = 0x000F

MAX_NAME_LEN = 255
MAX_LABEL_LEN = 63


class RecordType(enum.IntEnum):
    A = 1
    NS = 2
    CNAME = 5
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28


class Rcode(enum.IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


def _validate_name(name: str) -> tuple[str, ...]:
    name = name.rstrip(".").lower()
    if not name:
        return ()
    labels = tuple(name.split("."))
    total = sum(len(label) + 1 for label in labels) + 1
    if total > MAX_NAME_LEN:
        raise ProtocolError(f"name {name!r} exceeds {MAX_NAME_LEN} bytes")
    for label in labels:
        if not label or len(label) > MAX_LABEL_LEN:
            raise ProtocolError(f"bad label {label!r} in {name!r}")
    return labels


class NameEncoder:
    """Encodes domain names with RFC 1035 compression pointers."""

    def __init__(self) -> None:
        #: suffix tuple -> offset of its first encoding
        self._seen: dict[tuple[str, ...], int] = {}

    def encode(self, name: str, offset: int) -> bytes:
        """Encode ``name`` for placement at byte ``offset``."""
        labels = _validate_name(name)
        out = bytearray()
        index = 0
        while index < len(labels):
            suffix = labels[index:]
            pointer = self._seen.get(suffix)
            if pointer is not None and pointer < 0x4000:
                out += struct.pack("!H", 0xC000 | pointer)
                return bytes(out)
            current = offset + len(out)
            if current < 0x4000:
                self._seen[suffix] = current
            label = labels[index].encode("ascii")
            out.append(len(label))
            out += label
            index += 1
        out.append(0)
        return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset).

    Follows compression pointers with loop protection; the returned
    offset is the position after the name *in the original stream*
    (i.e. after the pointer if one was taken).
    """
    labels: list[str] = []
    jumps = 0
    next_offset: int | None = None
    position = offset
    while True:
        if position >= len(data):
            raise ProtocolError("truncated name")
        length = data[position]
        if length & 0xC0 == 0xC0:
            if position + 1 >= len(data):
                raise ProtocolError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[position + 1]
            if next_offset is None:
                next_offset = position + 2
            jumps += 1
            if jumps > 64:
                raise ProtocolError("compression pointer loop")
            if pointer >= position:
                raise ProtocolError("forward compression pointer")
            position = pointer
            continue
        if length & 0xC0:
            raise ProtocolError(f"reserved label type {length:#04x}")
        position += 1
        if length == 0:
            break
        if position + length > len(data):
            raise ProtocolError("truncated label")
        label = data[position : position + length]
        if not label.isascii():
            raise ProtocolError(f"non-ASCII byte in label at offset {position}")
        labels.append(label.decode("ascii"))
        position += length
        if sum(len(l) + 1 for l in labels) > MAX_NAME_LEN:
            raise ProtocolError("decoded name too long")
    if next_offset is None:
        next_offset = position
    return ".".join(labels), next_offset


@dataclass(frozen=True)
class Question:
    name: str
    qtype: int = RecordType.A
    qclass: int = 1  # IN


@dataclass(frozen=True)
class ResourceRecord:
    name: str
    rtype: int
    ttl: int
    rdata: bytes
    rclass: int = 1

    @classmethod
    def a(cls, name: str, address: str, ttl: int = 300) -> "ResourceRecord":
        from .ip import IPv4Address

        return cls(name, RecordType.A, ttl, IPv4Address.parse(address).octets)

    @property
    def address(self) -> str:
        """Dotted-quad view of an A record's rdata."""
        if self.rtype != RecordType.A or len(self.rdata) != 4:
            raise ProtocolError("not an A record")
        return ".".join(str(octet) for octet in self.rdata)


@dataclass(frozen=True)
class DnsMessage:
    """A DNS query or response."""

    ident: int
    flags: int = 0
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authorities: tuple[ResourceRecord, ...] = ()
    additionals: tuple[ResourceRecord, ...] = ()

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR)

    @property
    def rcode(self) -> int:
        return self.flags & RCODE_MASK

    @classmethod
    def query(cls, ident: int, name: str, qtype: int = RecordType.A) -> "DnsMessage":
        return cls(
            ident=ident,
            flags=FLAG_RD,
            questions=(Question(name, qtype),),
        )

    # ------------------------------------------------------------------
    # Encoding

    def serialize(self) -> bytes:
        out = bytearray(
            _HEADER.pack(
                self.ident,
                self.flags,
                len(self.questions),
                len(self.answers),
                len(self.authorities),
                len(self.additionals),
            )
        )
        encoder = NameEncoder()
        for question in self.questions:
            out += encoder.encode(question.name, len(out))
            out += struct.pack("!HH", question.qtype, question.qclass)
        for record in self.answers + self.authorities + self.additionals:
            out += encoder.encode(record.name, len(out))
            out += struct.pack(
                "!HHIH", record.rtype, record.rclass, record.ttl, len(record.rdata)
            )
            out += record.rdata
        return bytes(out)

    # ------------------------------------------------------------------
    # Decoding

    @classmethod
    def parse(cls, data: bytes | memoryview) -> "DnsMessage":
        data = bytes(data)
        if len(data) < HEADER_LEN:
            raise ProtocolError(f"DNS needs {HEADER_LEN} header bytes")
        ident, flags, qd, an, ns, ar = _HEADER.unpack_from(data)
        offset = HEADER_LEN
        questions: list[Question] = []
        for _ in range(qd):
            name, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise ProtocolError("truncated question")
            qtype, qclass = struct.unpack_from("!HH", data, offset)
            offset += 4
            questions.append(Question(name, qtype, qclass))

        def parse_records(count: int, offset: int):
            records: list[ResourceRecord] = []
            for _ in range(count):
                name, offset = decode_name(data, offset)
                if offset + 10 > len(data):
                    raise ProtocolError("truncated resource record")
                rtype, rclass, ttl, rdlength = struct.unpack_from(
                    "!HHIH", data, offset
                )
                offset += 10
                if offset + rdlength > len(data):
                    raise ProtocolError("truncated rdata")
                records.append(
                    ResourceRecord(
                        name, rtype, ttl, data[offset : offset + rdlength], rclass
                    )
                )
                offset += rdlength
            return tuple(records), offset

        answers, offset = parse_records(an, offset)
        authorities, offset = parse_records(ns, offset)
        additionals, offset = parse_records(ar, offset)
        return cls(
            ident=ident,
            flags=flags,
            questions=tuple(questions),
            answers=answers,
            authorities=authorities,
            additionals=additionals,
        )


class DnsZone:
    """A tiny authoritative zone: name → list of records.

    :meth:`answer` implements the response logic a stub authoritative
    server needs: match the question name and type (following CNAME
    chains), NXDOMAIN for unknown names, NOTIMP for unsupported opcodes.
    """

    def __init__(self) -> None:
        self._records: dict[str, list[ResourceRecord]] = {}
        self.queries = 0
        self.nxdomains = 0

    def add(self, record: ResourceRecord) -> None:
        key = record.name.rstrip(".").lower()
        self._records.setdefault(key, []).append(record)

    def add_a(self, name: str, address: str, ttl: int = 300) -> None:
        self.add(ResourceRecord.a(name, address, ttl))

    def lookup(self, name: str, rtype: int) -> list[ResourceRecord]:
        return [
            record
            for record in self._records.get(name.rstrip(".").lower(), [])
            if record.rtype == rtype
        ]

    def answer(self, query: DnsMessage) -> DnsMessage:
        """Build the response to one query message."""
        self.queries += 1
        base_flags = FLAG_QR | FLAG_AA | (query.flags & FLAG_RD)
        if query.is_response or not query.questions:
            return DnsMessage(
                ident=query.ident,
                flags=base_flags | Rcode.FORMERR,
                questions=query.questions,
            )
        question = query.questions[0]
        answers: list[ResourceRecord] = []
        name = question.name
        for _ in range(8):  # bounded CNAME chase
            direct = self.lookup(name, question.qtype)
            if direct:
                answers.extend(direct)
                break
            cnames = self.lookup(name, RecordType.CNAME)
            if not cnames:
                break
            answers.extend(cnames)
            name = cnames[0].rdata.decode("ascii")
        if answers:
            rcode = Rcode.NOERROR
        elif self._records.get(question.name.rstrip(".").lower()):
            rcode = Rcode.NOERROR  # name exists, no data of that type
        else:
            rcode = Rcode.NXDOMAIN
            self.nxdomains += 1
        return DnsMessage(
            ident=query.ident,
            flags=base_flags | rcode,
            questions=query.questions,
            answers=tuple(answers),
        )
