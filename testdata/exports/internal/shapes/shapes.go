// Package shapes holds the cases TestExportScanResolvesTypes runs the
// export scan on. Of its exports, only Square.Scale and Config.Unread
// have no use.
package shapes

import (
	"encoding/json"
	"fmt"
)

// Shape is what Total sums.
type Shape interface{ Area() float64 }

// Circle's Scale is called by name, its Area only through Shape, and its
// String only by fmt.
type Circle struct{ R float64 }

// Scale multiplies the radius by k.
func (c *Circle) Scale(k float64) { c.R *= k }

// Area returns the circle's area.
func (c Circle) Area() float64 { return 3.14159 * c.R * c.R }

// String describes the circle.
func (c Circle) String() string { return fmt.Sprintf("circle r=%g", c.R) }

// Square shares the method name Scale with Circle, and nothing calls its
// Scale.
type Square struct{ Side float64 }

// Scale multiplies the side by k.
func (s *Square) Scale(k float64) { s.Side *= k }

// Total sums the shapes' areas.
func Total(shapes ...Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Config is decoded from JSON, and nothing reads its Unread field.
type Config struct {
	Name   string
	Unread int
}

// Parse decodes a Config.
func Parse(b []byte) (Config, error) {
	var c Config
	err := json.Unmarshal(b, &c)
	return c, err
}
