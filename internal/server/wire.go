package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	cind "cind"

	"cind/internal/stream"
)

// violationWire is the wire form of one violation — the NDJSON line the
// violations endpoint streams and the element type of delta-diff
// responses. It is stream.Violation: the violations endpoint's negotiated
// encodings (internal/stream) and the JSON here are one format.
type violationWire = stream.Violation

// errorWire is the body of every non-2xx response, and the final NDJSON
// line of a stream that ended on a cancelled context.
type errorWire struct {
	Error string `json:"error"`
}

func encodeReport(r *cind.Report) []violationWire {
	vs := r.Violations()
	out := make([]violationWire, len(vs))
	for i, v := range vs {
		out[i] = stream.Convert(v)
	}
	return out
}

// deltaWire is one tuple-level change in a deltas request: op is "+" or
// "insert" for inserts, "-" or "delete" for deletes, and tuple holds the
// values in schema column order.
type deltaWire struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

// deltasRequest is the deltas endpoint's body; a bare JSON array of delta
// objects is accepted as shorthand.
type deltasRequest struct {
	Deltas []deltaWire `json:"deltas"`
}

// diffWire is the deltas endpoint's response: the net report change of the
// batch, plus the number of deltas received. In durable mode durable
// reports whether the batch reached the WAL; false means the batch is live
// in memory (do NOT retry it — that would double-apply) but the storage
// layer failed, with the failure in storage_error. In-memory mode omits
// both.
type diffWire struct {
	Applied      int             `json:"applied"`
	Durable      *bool           `json:"durable,omitempty"`
	StorageError string          `json:"storage_error,omitempty"`
	Added        []violationWire `json:"added"`
	Removed      []violationWire `json:"removed"`
}

// repairRequest is the repair endpoint's (optional) body.
type repairRequest struct {
	MaxPasses int `json:"max_passes"`
}

// changeWire is one repair action in a repair response.
type changeWire struct {
	Kind       string   `json:"kind"`
	Relation   string   `json:"relation"`
	Constraint string   `json:"constraint"`
	Before     []string `json:"before,omitempty"`
	After      []string `json:"after"`
}

// repairWire is the repair endpoint's response.
type repairWire struct {
	Clean   bool         `json:"clean"`
	Passes  int          `json:"passes"`
	Changes []changeWire `json:"changes"`
}

func encodeRepair(res *cind.RepairResult) repairWire {
	out := repairWire{Clean: res.Clean, Passes: res.Passes, Changes: make([]changeWire, len(res.Changes))}
	for i, c := range res.Changes {
		cw := changeWire{
			Kind:       c.Kind.String(),
			Relation:   c.Rel,
			Constraint: c.Constraint,
			After:      tupleStrings(c.After),
		}
		if c.Before != nil {
			cw.Before = tupleStrings(c.Before)
		}
		out.Changes[i] = cw
	}
	return out
}

func tupleStrings(t cind.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// --- reasoning wire types ---

// implicationWire is one goal's outcome in an implication response. An
// implied goal carries the inference-system proof (when one exists) or the
// universal-chase reason; a refuted goal carries the counterexample
// database (relation → tuples, variables rendered as fresh unknowns).
type implicationWire struct {
	Constraint     string                `json:"constraint"`
	Verdict        string                `json:"verdict"`
	Reason         string                `json:"reason"`
	Proof          string                `json:"proof,omitempty"`
	Counterexample map[string][][]string `json:"counterexample,omitempty"`
}

// implicationResponse is the implication endpoint's body: one outcome per
// goal, in goal order.
type implicationResponse struct {
	Results []implicationWire `json:"results"`
}

// consistencyWire is the consistency endpoint's response. Consistent true
// is definitive (Theorem 5.1) and carries the merged per-component witness
// template; false means no witness was found within the budgets.
type consistencyWire struct {
	Consistent bool                  `json:"consistent"`
	Witness    map[string][][]string `json:"witness,omitempty"`
}

// droppedWire is one removed constraint in a minimize response, with its
// implication certificate.
type droppedWire struct {
	ID         string `json:"id"`
	Index      int    `json:"index"`
	Constraint string `json:"constraint"`
	Verdict    string `json:"verdict"`
	Reason     string `json:"reason"`
	Proof      string `json:"proof,omitempty"`
}

// minimizeWire is the minimize endpoint's response: the minimized set
// rendered in the constraint text format (PUT it back to a constraints
// endpoint to serve it), plus the certificate-carrying drop list.
type minimizeWire struct {
	Kept        int           `json:"kept"`
	Dropped     []droppedWire `json:"dropped"`
	Constraints string        `json:"constraints"`
}

func encodeOutcome(id string, out cind.ImplicationOutcome) implicationWire {
	w := implicationWire{
		Constraint: id,
		Verdict:    out.Verdict.String(),
		Reason:     out.Reason,
	}
	if out.Proof != nil {
		w.Proof = out.Proof.String()
	}
	if out.Counterexample != nil {
		w.Counterexample = encodeDatabase(out.Counterexample)
	}
	return w
}

// encodeDatabase renders a witness or counterexample database as
// relation → tuples, empty relations omitted.
func encodeDatabase(db *cind.Database) map[string][][]string {
	out := map[string][][]string{}
	for _, rel := range db.Schema().Relations() {
		in := db.Instance(rel.Name())
		if in.Len() == 0 {
			continue
		}
		rows := make([][]string, 0, in.Len())
		for _, t := range in.Tuples() {
			rows = append(rows, tupleStrings(t))
		}
		out[rel.Name()] = rows
	}
	return out
}

// encodeDeltas renders applied deltas back into the wire format — the WAL
// payload encoding, so decodeDeltas replays a logged batch through exactly
// the validation a live request passes.
func encodeDeltas(deltas []cind.Delta) []deltaWire {
	out := make([]deltaWire, len(deltas))
	for i, d := range deltas {
		out[i] = deltaWire{Op: d.Op.String(), Rel: d.Rel, Tuple: tupleStrings(d.Tuple)}
	}
	return out
}

// maxDeltaBatch caps the number of deltas one request may carry — the
// resource bound that keeps a single request from holding the dataset's
// write lock for an unbounded batch.
const maxDeltaBatch = 100000

// goalPrefix renders a dataset schema's relation declarations — the
// invisible preamble implication goals are parsed under. Computed once per
// dataset (the set is immutable), not per request.
func goalPrefix(set *cind.ConstraintSet) string {
	return cind.MarshalSpec(&cind.Spec{Schema: set.Schema()}) + "\n"
}

// goalLineNumber rewrites "line N" in a parse error so the number refers
// to the client's request body, not the schema preamble the server
// prepended.
var goalLineNumber = regexp.MustCompile(`line (\d+)`)

// decodeGoals parses the body of an implication request: one or more
// `cind` clauses in the constraint text format, WITHOUT relation
// declarations — the dataset's own schema (pre-rendered as prefix by
// goalPrefix) is prepended, so goals are stated against the relations the
// dataset already serves. CFD clauses are rejected (implication analysis
// covers CINDs, Section 3), as is an empty body.
func decodeGoals(body []byte, prefix string) ([]*cind.CIND, error) {
	spec, err := cind.ParseSpec(prefix + string(body))
	if err != nil {
		offset := strings.Count(prefix, "\n")
		msg := goalLineNumber.ReplaceAllStringFunc(err.Error(), func(m string) string {
			n, convErr := strconv.Atoi(strings.TrimPrefix(m, "line "))
			if convErr != nil || n <= offset {
				return m
			}
			return fmt.Sprintf("line %d", n-offset)
		})
		return nil, fmt.Errorf("parse goals: %s", msg)
	}
	if len(spec.CFDs) > 0 {
		return nil, fmt.Errorf("parse goals: implication analysis covers cind clauses only, got a cfd")
	}
	if len(spec.CINDs) == 0 {
		return nil, fmt.Errorf("parse goals: no cind clause in the request body")
	}
	return spec.CINDs, nil
}

// decodeDeltas parses and domain-validates the delta wire format against
// the set's schema: ops must be +/insert or -/delete, relations must exist,
// tuples must match the relation arity and every value must belong to its
// attribute domain — the same checks CSV loading runs. The body is either
// {"deltas": [...]} or a bare array. Any malformed input yields an error
// (never a panic), which the handler maps to 400.
func decodeDeltas(data []byte, set *cind.ConstraintSet) ([]cind.Delta, error) {
	var wires []deltaWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		if err := dec.Decode(&wires); err != nil {
			return nil, fmt.Errorf("decode deltas: %v", err)
		}
	} else {
		var req deltasRequest
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("decode deltas: %v", err)
		}
		wires = req.Deltas
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decode deltas: trailing data after batch")
	}
	if len(wires) > maxDeltaBatch {
		return nil, fmt.Errorf("decode deltas: batch of %d exceeds the %d-delta cap", len(wires), maxDeltaBatch)
	}
	sch := set.Schema()
	out := make([]cind.Delta, 0, len(wires))
	for i, dw := range wires {
		rel, ok := sch.Relation(dw.Rel)
		if !ok {
			return nil, fmt.Errorf("delta %d: unknown relation %q", i, dw.Rel)
		}
		if len(dw.Tuple) != rel.Arity() {
			return nil, fmt.Errorf("delta %d: tuple has arity %d, relation %s wants %d",
				i, len(dw.Tuple), dw.Rel, rel.Arity())
		}
		for j, val := range dw.Tuple {
			if a := rel.Attrs()[j]; !a.Dom.Contains(val) {
				return nil, fmt.Errorf("delta %d: value %q outside dom(%s)", i, val, a.Name)
			}
		}
		t := cind.Consts(dw.Tuple...)
		switch dw.Op {
		case "+", "insert":
			out = append(out, cind.InsertDelta(dw.Rel, t))
		case "-", "delete":
			out = append(out, cind.DeleteDelta(dw.Rel, t))
		default:
			return nil, fmt.Errorf("delta %d: bad op %q (want + or -)", i, dw.Op)
		}
	}
	return out, nil
}
