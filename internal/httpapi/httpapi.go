// Package httpapi is the HTTP contract shared by ioserved and the
// iorouter cluster: the structured JSON error envelope every non-200
// carries, the query-parameter taxonomy (unknown parameters are
// rejected, not ignored), the document framing, and the route table
// (mount.go): a service declares each route once, as a Route row, and
// Mount derives the mux, the machine-readable index served at GET /v1,
// the per-row checks and the per-row metrics from it. Keeping the contract
// in one package means a client that can parse one service's errors can
// parse the other's — including the router itself, which classifies
// upstream envelopes when failing over.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Code classifies an error for machine consumption. Codes are coarser
// than messages and stable across releases: clients branch on the code,
// humans read the message.
type Code string

// The error-code taxonomy. Every non-200 from serve or cluster carries
// exactly one of these.
const (
	// CodeBadRequest: the request itself is malformed — bad dataset name,
	// undecodable body, missing required field, or (405) a method the
	// path does not take.
	CodeBadRequest Code = "bad_request"
	// CodeBadParam: a query parameter is unknown or has an invalid value.
	CodeBadParam Code = "bad_param"
	// CodeNotFound: the named dataset does not exist, or no route matches
	// the path.
	CodeNotFound Code = "not_found"
	// CodeUnauthorized: missing or unknown API key.
	CodeUnauthorized Code = "unauthorized"
	// CodeRateLimited: the tenant exhausted its token bucket (429).
	CodeRateLimited Code = "rate_limited"
	// CodeOverCapacity: the service is shedding load — a full concurrency
	// gate or every owner answering 429.
	CodeOverCapacity Code = "over_capacity"
	// CodeTimeout: the query exceeded the server-side deadline (the
	// 408-class failure, reported as 503 + Retry-After).
	CodeTimeout Code = "timeout"
	// CodeUnavailable: the service (or every owner of the dataset) is not
	// ready to answer; retry later.
	CodeUnavailable Code = "unavailable"
	// CodeUpstreamFailed: the router could not complete a fan-out against
	// its replicas (502).
	CodeUpstreamFailed Code = "upstream_failed"
	// CodeIngestFailed: the ingest source was readable as a request but
	// could not be folded (422).
	CodeIngestFailed Code = "ingest_failed"
	// CodeInternal: a bug — marshal failures and other should-not-happen
	// paths.
	CodeInternal Code = "internal"
)

// Codes enumerates the complete error-code taxonomy, in the order the
// constants are declared. Documentation drift tests iterate this — a
// code added above without a docs/api.md row fails the build.
func Codes() []Code {
	return []Code{
		CodeBadRequest, CodeBadParam, CodeNotFound, CodeUnauthorized,
		CodeRateLimited, CodeOverCapacity, CodeTimeout, CodeUnavailable,
		CodeUpstreamFailed, CodeIngestFailed, CodeInternal,
	}
}

// ErrorDetail is the inner object of the error envelope.
type ErrorDetail struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header in milliseconds; zero
	// means the client gains nothing by retrying on a schedule.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the body of every non-200 response:
//
//	{"error":{"code":"not_found","message":"no dataset \"x\""}}
//
// compactly marshaled with a trailing newline.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// WriteError writes the envelope for an error with no retry hint.
func WriteError(w http.ResponseWriter, status int, code Code, msg string) {
	writeEnvelope(w, status, ErrorDetail{Code: code, Message: msg})
}

// WriteErrorRetry writes the envelope for a retryable error, setting the
// Retry-After header (whole seconds, rounded up, at least 1) and the
// envelope's retry_after_ms from the same duration.
func WriteErrorRetry(w http.ResponseWriter, status int, code Code, msg string, retryAfter time.Duration) {
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeEnvelope(w, status, ErrorDetail{Code: code, Message: msg, RetryAfterMS: retryAfter.Milliseconds()})
}

func writeEnvelope(w http.ResponseWriter, status int, d ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(ErrorEnvelope{Error: d})
	w.Write(append(data, '\n'))
}

// DecodeError parses a response body as the error envelope. ok reports
// whether the body really is one — a code is required, so flat legacy
// bodies and HTML proxy pages both fail the decode.
func DecodeError(body []byte) (ErrorEnvelope, bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return ErrorEnvelope{}, false
	}
	if env.Error.Code == "" {
		return ErrorEnvelope{}, false
	}
	return env, true
}

// Query returns a request's query parameters after enforcing the
// parameter taxonomy: any parameter outside allowed is an error (the
// caller turns it into a 400 CodeBadParam). Unknown-parameter rejection
// is deliberate — a typoed ?fromat= silently ignored is a client bug
// allowed to ship.
func Query(r *http.Request, allowed ...string) (map[string]string, error) {
	q := r.URL.Query()
	if err := checkParams(q, allowed); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(q))
	for k, vs := range q {
		if len(vs) > 0 {
			out[k] = vs[0]
		}
	}
	return out, nil
}

// checkParams is the taxonomy check itself: the first (sorted) parameter
// of q outside allowed is the error.
func checkParams(q url.Values, allowed []string) error {
	var unknown []string
	for k := range q {
		if !slices.Contains(allowed, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	allowedDesc := "none"
	if len(allowed) > 0 {
		allowedDesc = strings.Join(allowed, ", ")
	}
	return fmt.Errorf("unknown query parameter %q (allowed: %s)", unknown[0], allowedDesc)
}

// MarshalDoc frames a wire document exactly as both services write it:
// two-space indented JSON plus a trailing newline.
func MarshalDoc(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteDoc answers 200 with v framed by MarshalDoc, or with the 500
// internal envelope when v cannot be marshaled.
func WriteDoc(w http.ResponseWriter, v any) {
	data, err := MarshalDoc(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
