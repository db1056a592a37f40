package sptree

import "fmt"

// Canonicalize merges adjacent same-type S/S and P/P nodes and removes
// single-child S and P nodes, producing the canonical SP-tree of
// Section IV-A. It must only be used on pure SP-trees (no F/L nodes):
// pseudo P nodes are meaningful in annotated run trees and must not be
// collapsed there. The result is a new tree. spgraph builds canonical
// trees during reduction, so this is the reference the property tests
// of this package hold canonical trees to.
func Canonicalize(n *Node) *Node {
	c := canonicalize(n)
	c.Parent = nil
	c.Finalize()
	return c
}

func canonicalize(n *Node) *Node {
	if n.Type == Q {
		return NewQ(n.Edge, n.Src, n.Dst)
	}
	if n.Type != S && n.Type != P {
		panic(fmt.Sprintf("sptree: Canonicalize on annotated tree (found %s node)", n.Type))
	}
	var kids []*Node
	for _, child := range n.Children {
		cc := canonicalize(child)
		if cc.Type == n.Type {
			kids = append(kids, cc.Children...)
		} else {
			kids = append(kids, cc)
		}
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return NewInternal(n.Type, kids...)
}
