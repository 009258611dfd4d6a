package experiments

// The Boolean query model of early commercial IR systems, which §2.1
// contrasts with the natural language model: `t1 AND t2` returns, in
// no particular order, the documents containing both terms; `t1 OR
// t2` those containing either; NOT complements. The paper recounts the
// model's central problem — "formulating boolean queries that return
// result sets of manageable size has been shown to require significant
// expertise" [Tur94] — which the experiments quantify against ranked
// retrieval.
//
// Queries evaluate over document-sorted inverted lists (the layout
// boolean systems use) through the buffer manager, with classic
// sorted-list merges for AND/OR/AND-NOT. E19 (boolexp.go) drives it.

import (
	"context"
	"fmt"
	"strings"

	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// boolExpr is a parsed boolean expression.
type boolExpr interface {
	// String renders the expression in canonical form.
	String() string
}

// boolTerm matches documents containing a term.
type boolTerm struct {
	Term postings.TermID
	Name string
}

// boolAnd is the conjunction of its children.
type boolAnd struct{ Left, Right boolExpr }

// boolOr is the disjunction of its children.
type boolOr struct{ Left, Right boolExpr }

// boolNot is the complement of its child.
type boolNot struct{ Child boolExpr }

// String implements boolExpr.
func (e *boolTerm) String() string { return e.Name }

// String implements boolExpr.
func (e *boolAnd) String() string { return "(" + e.Left.String() + " AND " + e.Right.String() + ")" }

// String implements boolExpr.
func (e *boolOr) String() string { return "(" + e.Left.String() + " OR " + e.Right.String() + ")" }

// String implements boolExpr.
func (e *boolNot) String() string { return "(NOT " + e.Child.String() + ")" }

// parseBoolean reads a boolean expression over index terms. Grammar
// (AND binds tighter than OR; NOT is a prefix operator; parentheses
// group):
//
//	expr   := conj (OR conj)*
//	conj   := factor (AND factor)*
//	factor := NOT factor | '(' expr ')' | WORD
//
// Words are resolved through lookup, which should apply the same
// normalization as indexing (e.g. Index.LookupTerm).
func parseBoolean(query string, lookup func(string) (postings.TermID, bool)) (boolExpr, error) {
	p := &boolParser{lookup: lookup}
	p.tokens = boolTokens(query)
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.tokens) {
		return nil, fmt.Errorf("boolean: unexpected token %q", p.tokens[p.pos])
	}
	return expr, nil
}

func boolTokens(s string) []string {
	s = strings.ReplaceAll(s, "(", " ( ")
	s = strings.ReplaceAll(s, ")", " ) ")
	return strings.Fields(s)
}

type boolParser struct {
	tokens []string
	pos    int
	lookup func(string) (postings.TermID, bool)
}

func (p *boolParser) peek() (string, bool) {
	if p.pos >= len(p.tokens) {
		return "", false
	}
	return p.tokens[p.pos], true
}

func (p *boolParser) next() (string, bool) {
	tok, ok := p.peek()
	if ok {
		p.pos++
	}
	return tok, ok
}

func (p *boolParser) parseExpr() (boolExpr, error) {
	left, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	for {
		tok, ok := p.peek()
		if !ok || !strings.EqualFold(tok, "OR") {
			return left, nil
		}
		p.pos++
		right, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		left = &boolOr{left, right}
	}
}

func (p *boolParser) parseConj() (boolExpr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		tok, ok := p.peek()
		if !ok || !strings.EqualFold(tok, "AND") {
			return left, nil
		}
		p.pos++
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &boolAnd{left, right}
	}
}

func (p *boolParser) parseFactor() (boolExpr, error) {
	tok, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("boolean: unexpected end of query")
	}
	switch {
	case strings.EqualFold(tok, "NOT"):
		child, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &boolNot{child}, nil
	case tok == "(":
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		closing, ok := p.next()
		if !ok || closing != ")" {
			return nil, fmt.Errorf("boolean: missing closing parenthesis")
		}
		return expr, nil
	case tok == ")" || strings.EqualFold(tok, "AND") || strings.EqualFold(tok, "OR"):
		return nil, fmt.Errorf("boolean: unexpected %q", tok)
	default:
		id, found := p.lookup(tok)
		if !found {
			return nil, fmt.Errorf("boolean: term %q not in index", tok)
		}
		return &boolTerm{Term: id, Name: tok}, nil
	}
}

// boolResult is a boolean answer: an unordered document set (returned
// sorted for determinism) plus read accounting.
type boolResult struct {
	Docs      []postings.DocID
	PagesRead int
}

// boolEvaluator evaluates boolean expressions through a buffer pool
// over a doc-sorted index (postings.BuildDocSorted).
type boolEvaluator struct {
	Idx *postings.Index
	Buf buffer.Pool
}

// newBoolEvaluator wires the evaluator.
func newBoolEvaluator(ix *postings.Index, buf buffer.Pool) (*boolEvaluator, error) {
	if ix == nil || buf == nil {
		return nil, fmt.Errorf("boolean: nil index or buffer pool")
	}
	return &boolEvaluator{Idx: ix, Buf: buf}, nil
}

// Evaluate computes the expression's document set.
func (e *boolEvaluator) Evaluate(expr boolExpr) (*boolResult, error) {
	if expr == nil {
		return nil, fmt.Errorf("boolean: nil expression")
	}
	e.Buf.SetQuery(boolWeights(e.Idx, expr))
	// Reads are counted from per-Fetch miss reports, confined to this
	// call, so concurrent evaluations on a shared pool stay exact.
	reads := 0
	docs, err := e.eval(expr, &reads)
	if err != nil {
		return nil, err
	}
	return &boolResult{
		Docs:      docs,
		PagesRead: reads,
	}, nil
}

// boolWeights gives RAP-managed pools a usable w_qt for the
// expression's terms (boolean queries have no f_qt; weight 1·idf is
// the natural choice).
func boolWeights(ix *postings.Index, expr boolExpr) buffer.QueryWeights {
	w := buffer.QueryWeights{}
	var walk func(boolExpr)
	walk = func(e boolExpr) {
		switch v := e.(type) {
		case *boolTerm:
			w[v.Term] = ix.IDF(v.Term)
		case *boolAnd:
			walk(v.Left)
			walk(v.Right)
		case *boolOr:
			walk(v.Left)
			walk(v.Right)
		case *boolNot:
			walk(v.Child)
		}
	}
	walk(expr)
	return w
}

func (e *boolEvaluator) eval(expr boolExpr, reads *int) ([]postings.DocID, error) {
	switch v := expr.(type) {
	case *boolTerm:
		return e.termDocs(v.Term, reads)
	case *boolAnd:
		// AND NOT gets the dedicated difference merge: the complement
		// never materializes.
		if not, ok := v.Right.(*boolNot); ok {
			left, err := e.eval(v.Left, reads)
			if err != nil {
				return nil, err
			}
			right, err := e.eval(not.Child, reads)
			if err != nil {
				return nil, err
			}
			return difference(left, right), nil
		}
		left, err := e.eval(v.Left, reads)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(v.Right, reads)
		if err != nil {
			return nil, err
		}
		return intersect(left, right), nil
	case *boolOr:
		left, err := e.eval(v.Left, reads)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(v.Right, reads)
		if err != nil {
			return nil, err
		}
		return union(left, right), nil
	case *boolNot:
		child, err := e.eval(v.Child, reads)
		if err != nil {
			return nil, err
		}
		return e.complement(child), nil
	default:
		return nil, fmt.Errorf("boolean: unknown expression %T", expr)
	}
}

// termDocs reads a term's full doc-sorted list through the pool.
func (e *boolEvaluator) termDocs(t postings.TermID, reads *int) ([]postings.DocID, error) {
	tm := &e.Idx.Terms[t]
	out := make([]postings.DocID, 0, tm.DF)
	for p := 0; p < tm.NumPages; p++ {
		frame, missed, err := e.Buf.FetchContext(context.TODO(), e.Idx.PageOf(t, p))
		if err != nil {
			return nil, fmt.Errorf("boolean: term %q page %d: %w", tm.Name, p, err)
		}
		if missed {
			*reads++
		}
		for _, entry := range frame.Data() {
			out = append(out, entry.Doc)
		}
		e.Buf.Unpin(frame)
	}
	return out, nil
}

// intersect merges two sorted doc lists (AND).
func intersect(a, b []postings.DocID) []postings.DocID {
	out := make([]postings.DocID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// union merges two sorted doc lists (OR).
func union(a, b []postings.DocID) []postings.DocID {
	out := make([]postings.DocID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// difference returns a minus b (AND NOT).
func difference(a, b []postings.DocID) []postings.DocID {
	out := make([]postings.DocID, 0, len(a))
	j := 0
	for _, d := range a {
		for j < len(b) && b[j] < d {
			j++
		}
		if j < len(b) && b[j] == d {
			continue
		}
		out = append(out, d)
	}
	return out
}

// complement returns all collection documents not in a (top-level NOT).
func (e *boolEvaluator) complement(a []postings.DocID) []postings.DocID {
	out := make([]postings.DocID, 0, e.Idx.NumDocs-len(a))
	j := 0
	for d := 0; d < e.Idx.NumDocs; d++ {
		if j < len(a) && a[j] == postings.DocID(d) {
			j++
			continue
		}
		out = append(out, postings.DocID(d))
	}
	return out
}
