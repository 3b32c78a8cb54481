package keyword

import (
	"strings"
	"unicode"

	"sizelos/internal/relational"
)

// Match is one data-subject candidate for a keyword query.
type Match struct {
	Relation string
	Tuple    relational.TupleID
	// Score is the tuple's global importance under the ranking setting the
	// index was asked to rank with; candidates are returned best-first.
	Score float64
}

// Tokenize lower-cases and splits a string on any non-letter/digit rune.
// It is exported so queries and documents are guaranteed to agree.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// stringColumns returns the ordinals of rel's string-kind columns.
func stringColumns(rel *relational.Relation) []int {
	var cols []int
	for ci, col := range rel.Columns {
		if col.Kind == relational.KindString {
			cols = append(cols, ci)
		}
	}
	return cols
}

// postToken appends ti to tok's posting list unless ti is already the
// list's tail: the one dedup rule every build and maintenance path shares.
// It assumes tuple-major scans with ascending ids (so a tuple's repeat
// occurrences — a token in several columns, or several times in one value
// — are always the current tail), which is what keeps posting lists
// ascending and duplicate-free across build and maintenance.
func postToken(tokens map[string][]relational.TupleID, tok string, ti relational.TupleID) {
	list := tokens[tok]
	if len(list) > 0 && list[len(list)-1] == ti {
		return // same tuple already posted for this token
	}
	tokens[tok] = append(list, ti)
}

// matchLess is the best-first order of one relation's matches: score
// desc, tuple asc.
func matchLess(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Tuple < b.Tuple
}
