package vaq_test

import (
	"fmt"

	vaq "repro"
)

// CellArea clips one Voronoi cell when it is asked: the areas of all cells
// partition the universe exactly.
func ExampleEngine_CellArea() {
	// Four points splitting the unit square into four equal quadrant
	// cells.
	points := []vaq.Point{
		{X: 0.25, Y: 0.25}, {X: 0.75, Y: 0.25},
		{X: 0.25, Y: 0.75}, {X: 0.75, Y: 0.75},
	}
	eng, err := vaq.NewEngine(points, vaq.UnitSquare())
	if err != nil {
		panic(err)
	}
	total := 0.0
	for id := int64(0); id < int64(eng.Len()); id++ {
		total += eng.CellArea(id)
	}
	fmt.Printf("cell 0 area: %.2f\n", eng.CellArea(0))
	fmt.Printf("sum of all cells: %.2f\n", total)
	// Output:
	// cell 0 area: 0.25
	// sum of all cells: 1.00
}
