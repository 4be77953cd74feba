// Package verify implements CEDAR's claim verification approaches: claim
// pre-processing (Algorithm 4, via claim.Masked), the one-shot LLM
// translation method (Algorithm 5, Figure 3), the agent-based method
// (Algorithms 6–8), query plausibility checking (CorrectQuery), claim
// validation (Algorithm 3), and query reconstruction (Algorithm 9). NewStack
// builds the standard four-method stack of Section 7.1 over simulated models
// and their middleware.
package verify

import (
	"errors"
	"fmt"

	"repro/internal/embed"
	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// Similarity thresholds of the paper: 0.7 for query plausibility
// (moderate-to-strong alignment tolerant of abbreviations and typos), 0.8
// for claim correctness.
const (
	PlausibleSimilarity = 0.7
	CorrectSimilarity   = 0.8
)

// ErrNoQuery indicates a verification method produced no usable SQL query.
var ErrNoQuery = errors.New("verify: no SQL query produced")

// CorrectQuery implements the plausibility gate of Algorithm 2: a
// translated query is likely correct when it executes to a single cell
// whose value is in the same order of magnitude as a numeric claim value,
// or embedding-similar (>= 0.7) to a textual claim value.
func CorrectQuery(query, claimValue string, db *sqldb.Database) bool {
	res, err := sqldb.QueryScalar(db, query)
	if err != nil || res.IsNull() {
		return false
	}
	if cv, ok := textutil.ParseNumber(claimValue); ok {
		rv, ok := res.AsFloat()
		if !ok {
			return false
		}
		return textutil.SameOrderOfMagnitude(cv, rv)
	}
	return embed.Similarity(claimValue, res.Text()) >= PlausibleSimilarity
}

// CorrectClaim implements Algorithm 3: execute the query, and for numeric
// claims compare the result rounded to the claim's stated precision; for
// textual claims compare embeddings against the 0.8 threshold.
func CorrectClaim(query, claimValue string, db *sqldb.Database) (bool, error) {
	res, err := sqldb.QueryScalar(db, query)
	if err != nil {
		return false, err
	}
	if textutil.IsNumeric(claimValue) {
		rv, ok := res.AsFloat()
		if !ok {
			return false, fmt.Errorf("%w: numeric claim vs non-numeric result %q", ErrNoQuery, res.String())
		}
		return textutil.RoundMatches(claimValue, rv), nil
	}
	return embed.Similarity(claimValue, res.Text()) >= CorrectSimilarity, nil
}

// Feedback produces the comparative tool feedback of Algorithm 8: precise
// enough to guide the agent, imprecise enough that the agent cannot echo
// the claim value as a constant. Numeric feedback distinguishes correct /
// close / greater / smaller; textual feedback matched / mismatched.
func Feedback(result sqldb.Value, claimValue string) string {
	if cv, ok := textutil.ParseNumber(claimValue); ok {
		rv, ok := result.AsFloat()
		if !ok {
			return "The query returned a non-numeric value but the claim is numeric."
		}
		switch {
		case textutil.RoundMatches(claimValue, rv):
			return "Value is correct"
		case textutil.SameOrderOfMagnitude(cv, rv):
			return "The query result is close to the claimed value"
		case rv > cv:
			return "The query result is greater than the claimed value"
		default:
			return "The query result is smaller than the claimed value"
		}
	}
	if embed.Similarity(claimValue, result.Text()) >= PlausibleSimilarity {
		return "Value matched"
	}
	return "Value mismatched"
}
