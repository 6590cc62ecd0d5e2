package logfmt

import (
	"errors"
	"fmt"
)

// Untrusted-input hardening. Production Darshan corpora are hostile in
// practice: year-long collections contain truncated logs (node crashes
// mid-flush), corrupt sections (bit rot, interrupted copies), and — once
// logs cross administrative boundaries — potentially adversarial files. The
// decoder therefore treats every length, count, and size field as
// attacker-controlled: allocations are bounded by what the payload could
// actually hold, decompression is bounded by DecodeLimits (a zlib bomb
// cannot inflate past the configured ceiling), and every failure carries a
// structured *DecodeError locating and classifying the damage.

// ErrLimit marks input rejected because it exceeds a DecodeLimits bound.
// The input may be well-formed; it is simply larger than the reader is
// willing to decode.
var ErrLimit = errors.New("logfmt: decode limit exceeded")

// DecodeLimits bounds what Read and ArchiveReader will allocate and decode
// on behalf of an untrusted input. The zero value is not useful; start from
// DefaultLimits and tighten.
type DecodeLimits struct {
	// MaxSectionBytes caps one section's declared uncompressed size — the
	// zlib-bomb bound: a section claiming more inflates nothing and is
	// rejected up front.
	MaxSectionBytes int
	// MaxCompressedBytes caps one section's compressed payload.
	MaxCompressedBytes int
	// MaxRecords caps the record count of one module section.
	MaxRecords int
	// MaxNames caps the name-table entry count of one names section.
	MaxNames int
	// MaxDXTTraces and MaxDXTSegments cap extended-tracing sections: traces
	// per section and segments per trace.
	MaxDXTTraces   int
	MaxDXTSegments int
	// MaxStringLen caps one decoded string (paths, the executable, metadata).
	MaxStringLen int
	// MaxMetadataPairs caps the job header's metadata map.
	MaxMetadataPairs int
	// MaxArchiveEntry caps one embedded log inside a campaign archive.
	MaxArchiveEntry int
}

// DefaultLimits returns the bounds enforced when the caller does not choose
// their own: generous enough for any log this repository's runtime emits,
// small enough that a crafted file cannot force multi-gigabyte allocations.
func DefaultLimits() DecodeLimits {
	return DecodeLimits{
		MaxSectionBytes:    256 << 20,
		MaxCompressedBytes: 256 << 20,
		MaxRecords:         4 << 20,
		MaxNames:           8 << 20,
		MaxDXTTraces:       1 << 20,
		MaxDXTSegments:     1 << 20,
		MaxStringLen:       maxStringLen,
		MaxMetadataPairs:   1 << 12,
		MaxArchiveEntry:    maxArchiveEntry,
	}
}

// sanitize fills zero fields from the defaults so a partially-specified
// DecodeLimits cannot accidentally mean "unlimited" (or "nothing decodes").
func (l DecodeLimits) sanitize() DecodeLimits {
	d := DefaultLimits()
	if l.MaxSectionBytes <= 0 {
		l.MaxSectionBytes = d.MaxSectionBytes
	}
	if l.MaxCompressedBytes <= 0 {
		l.MaxCompressedBytes = d.MaxCompressedBytes
	}
	if l.MaxRecords <= 0 {
		l.MaxRecords = d.MaxRecords
	}
	if l.MaxNames <= 0 {
		l.MaxNames = d.MaxNames
	}
	if l.MaxDXTTraces <= 0 {
		l.MaxDXTTraces = d.MaxDXTTraces
	}
	if l.MaxDXTSegments <= 0 {
		l.MaxDXTSegments = d.MaxDXTSegments
	}
	if l.MaxStringLen <= 0 {
		l.MaxStringLen = d.MaxStringLen
	}
	if l.MaxMetadataPairs <= 0 {
		l.MaxMetadataPairs = d.MaxMetadataPairs
	}
	if l.MaxArchiveEntry <= 0 {
		l.MaxArchiveEntry = d.MaxArchiveEntry
	}
	return l
}

// ErrorKind classifies a decode failure.
type ErrorKind int

// The decode-error taxonomy. Truncated means the input ends before the
// structure it promised; Corrupt means the bytes are present but wrong (CRC
// mismatch, impossible counts, malformed payloads); LimitExceeded means the
// input demands more than the configured DecodeLimits allow; BadMagic and
// BadVersion reject inputs that are not (this version of) the format.
const (
	KindTruncated ErrorKind = iota
	KindCorrupt
	KindLimitExceeded
	KindBadMagic
	KindBadVersion
)

// String names the kind.
func (k ErrorKind) String() string {
	switch k {
	case KindTruncated:
		return "truncated"
	case KindCorrupt:
		return "corrupt"
	case KindLimitExceeded:
		return "limit-exceeded"
	case KindBadMagic:
		return "bad-magic"
	case KindBadVersion:
		return "bad-version"
	default:
		return fmt.Sprintf("ErrorKind(%d)", int(k))
	}
}

// sentinel maps the kind to the package's sentinel error, which is what
// errors.Is matches through a *DecodeError.
func (k ErrorKind) sentinel() error {
	switch k {
	case KindTruncated:
		return ErrTruncated
	case KindCorrupt:
		return ErrCorrupt
	case KindLimitExceeded:
		return ErrLimit
	case KindBadMagic:
		return ErrBadMagic
	case KindBadVersion:
		return ErrVersion
	default:
		return ErrCorrupt
	}
}

// DecodeError is the structured error every decode failure resolves to: the
// kind of damage, the section (or archive structure) it was found in, the
// byte offset of that structure in the input stream, and detail. It unwraps
// to the matching sentinel (ErrTruncated, ErrCorrupt, ErrLimit, ErrBadMagic,
// ErrVersion), so errors.Is-based callers keep working.
type DecodeError struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Section names where the failure was found: "header", "job", "names",
	// "module", "dxt", "section" (an unclassified section), or for archives
	// "archive-header", "entry", "entry-frame".
	Section string
	// Offset is the byte offset in the input stream where the damaged
	// structure starts (-1 when unknown).
	Offset int64
	// Detail describes the specific failure.
	Detail string
}

// Error renders kind, location, and detail.
func (e *DecodeError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("logfmt: %s %s at offset %d: %s", e.Kind, e.Section, e.Offset, e.Detail)
	}
	return fmt.Sprintf("logfmt: %s %s: %s", e.Kind, e.Section, e.Detail)
}

// Unwrap maps the kind onto the package sentinel so existing
// errors.Is(err, ErrCorrupt)-style checks see through the structure.
func (e *DecodeError) Unwrap() error { return e.Kind.sentinel() }

// decodeErrf builds a *DecodeError with formatted detail.
func decodeErrf(kind ErrorKind, section string, offset int64, format string, args ...any) *DecodeError {
	return &DecodeError{Kind: kind, Section: section, Offset: offset,
		Detail: fmt.Sprintf(format, args...)}
}

// asDecodeError normalizes err to a *DecodeError: structured errors pass
// through; sentinel-wrapped errors are classified by errors.Is; anything
// else is corrupt. Used at the archive boundary so the streaming and
// recovery paths report identical kinds for identical damage.
func asDecodeError(err error, section string, offset int64) *DecodeError {
	var de *DecodeError
	if errors.As(err, &de) {
		return de
	}
	kind := KindCorrupt
	switch {
	case errors.Is(err, ErrTruncated):
		kind = KindTruncated
	case errors.Is(err, ErrLimit):
		kind = KindLimitExceeded
	case errors.Is(err, ErrBadMagic):
		kind = KindBadMagic
	case errors.Is(err, ErrVersion):
		kind = KindBadVersion
	}
	return &DecodeError{Kind: kind, Section: section, Offset: offset, Detail: err.Error()}
}
