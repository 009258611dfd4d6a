// Package boolean implements the Boolean query model of early
// commercial IR systems, which §2.1 contrasts with the natural
// language model: `t1 AND t2` returns, in no particular order, the
// documents containing both terms; `t1 OR t2` those containing
// either; NOT complements. The paper recounts the model's central
// problem — "formulating boolean queries that return result sets of
// manageable size has been shown to require significant expertise"
// [Tur94] — which the experiments quantify against ranked retrieval.
//
// Queries evaluate over document-sorted inverted lists (the layout
// boolean systems use) through the buffer manager, with classic
// sorted-list merges for AND/OR/AND-NOT.
package boolean

import (
	"context"
	"fmt"
	"strings"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
)

// Expr is a parsed boolean expression.
type Expr interface {
	// String renders the expression in canonical form.
	String() string
}

// TermExpr matches documents containing a term.
type TermExpr struct {
	Term postings.TermID
	Name string
}

// AndExpr is the conjunction of its children.
type AndExpr struct{ Left, Right Expr }

// OrExpr is the disjunction of its children.
type OrExpr struct{ Left, Right Expr }

// NotExpr is the complement of its child.
type NotExpr struct{ Child Expr }

// String implements Expr.
func (e *TermExpr) String() string { return e.Name }

// String implements Expr.
func (e *AndExpr) String() string { return "(" + e.Left.String() + " AND " + e.Right.String() + ")" }

// String implements Expr.
func (e *OrExpr) String() string { return "(" + e.Left.String() + " OR " + e.Right.String() + ")" }

// String implements Expr.
func (e *NotExpr) String() string { return "(NOT " + e.Child.String() + ")" }

// Parse reads a boolean expression over index terms. Grammar (AND
// binds tighter than OR; NOT is a prefix operator; parentheses group):
//
//	expr   := conj (OR conj)*
//	conj   := factor (AND factor)*
//	factor := NOT factor | '(' expr ')' | WORD
//
// Words are resolved through lookup, which should apply the same
// normalization as indexing (e.g. Index.LookupTerm).
func Parse(query string, lookup func(string) (postings.TermID, bool)) (Expr, error) {
	p := &parser{lookup: lookup}
	p.tokens = tokenize(query)
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.tokens) {
		return nil, fmt.Errorf("boolean: unexpected token %q", p.tokens[p.pos])
	}
	return expr, nil
}

func tokenize(s string) []string {
	s = strings.ReplaceAll(s, "(", " ( ")
	s = strings.ReplaceAll(s, ")", " ) ")
	return strings.Fields(s)
}

type parser struct {
	tokens []string
	pos    int
	lookup func(string) (postings.TermID, bool)
}

func (p *parser) peek() (string, bool) {
	if p.pos >= len(p.tokens) {
		return "", false
	}
	return p.tokens[p.pos], true
}

func (p *parser) next() (string, bool) {
	tok, ok := p.peek()
	if ok {
		p.pos++
	}
	return tok, ok
}

func (p *parser) parseExpr() (Expr, error) {
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
		left = &OrExpr{left, right}
	}
}

func (p *parser) parseConj() (Expr, error) {
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
		left = &AndExpr{left, right}
	}
}

func (p *parser) parseFactor() (Expr, error) {
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
		return &NotExpr{child}, nil
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
		return &TermExpr{Term: id, Name: tok}, nil
	}
}

// Result is a boolean answer: an unordered document set (returned
// sorted for determinism) plus read accounting.
type Result struct {
	Docs      []postings.DocID
	PagesRead int
}

// Evaluator evaluates boolean expressions through a buffer pool over a
// doc-sorted index (postings.BuildDocSorted).
type Evaluator struct {
	Idx *postings.Index
	Buf buffer.Pool
}

// NewEvaluator wires the evaluator.
func NewEvaluator(ix *postings.Index, buf buffer.Pool) (*Evaluator, error) {
	if ix == nil || buf == nil {
		return nil, fmt.Errorf("boolean: nil index or buffer pool")
	}
	return &Evaluator{Idx: ix, Buf: buf}, nil
}

// Evaluate computes the expression's document set.
func (e *Evaluator) Evaluate(expr Expr) (*Result, error) {
	if expr == nil {
		return nil, fmt.Errorf("boolean: nil expression")
	}
	e.Buf.SetQuery(weightsOf(e.Idx, expr))
	// Reads are counted from per-Fetch miss reports, confined to this
	// call, so concurrent evaluations on a shared pool stay exact.
	reads := 0
	docs, err := e.eval(expr, &reads)
	if err != nil {
		return nil, err
	}
	return &Result{
		Docs:      docs,
		PagesRead: reads,
	}, nil
}

// weightsOf gives RAP-managed pools a usable w_qt for the expression's
// terms (boolean queries have no f_qt; weight 1·idf is the natural
// choice).
func weightsOf(ix *postings.Index, expr Expr) buffer.QueryWeights {
	w := buffer.QueryWeights{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *TermExpr:
			w[v.Term] = ix.IDF(v.Term)
		case *AndExpr:
			walk(v.Left)
			walk(v.Right)
		case *OrExpr:
			walk(v.Left)
			walk(v.Right)
		case *NotExpr:
			walk(v.Child)
		}
	}
	walk(expr)
	return w
}

func (e *Evaluator) eval(expr Expr, reads *int) ([]postings.DocID, error) {
	switch v := expr.(type) {
	case *TermExpr:
		return e.termDocs(v.Term, reads)
	case *AndExpr:
		// AND NOT gets the dedicated difference merge: the complement
		// never materializes.
		if not, ok := v.Right.(*NotExpr); ok {
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
	case *OrExpr:
		left, err := e.eval(v.Left, reads)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(v.Right, reads)
		if err != nil {
			return nil, err
		}
		return union(left, right), nil
	case *NotExpr:
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
func (e *Evaluator) termDocs(t postings.TermID, reads *int) ([]postings.DocID, error) {
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
func (e *Evaluator) complement(a []postings.DocID) []postings.DocID {
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TermsOf extracts the distinct terms of an expression, for building
// the ranked-retrieval comparison query.
func TermsOf(expr Expr) []postings.TermID {
	seen := map[postings.TermID]bool{}
	var out []postings.TermID
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *TermExpr:
			if !seen[v.Term] {
				seen[v.Term] = true
				out = append(out, v.Term)
			}
		case *AndExpr:
			walk(v.Left)
			walk(v.Right)
		case *OrExpr:
			walk(v.Left)
			walk(v.Right)
		case *NotExpr:
			walk(v.Child)
		}
	}
	walk(expr)
	return out
}

// QueryOf converts an expression's terms into a ranked-retrieval
// query with unit frequencies.
func QueryOf(expr Expr) eval.Query {
	var q eval.Query
	for _, t := range TermsOf(expr) {
		q = append(q, eval.QueryTerm{Term: t, Fqt: 1})
	}
	return q
}
