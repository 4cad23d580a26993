// Package shapes holds the cases TestExportScanResolvesTypes runs the
// export scan on, and TestSettingScanFindsWrites the setting scan. Of
// its exports, only Square.Scale and Config.Unread have no use. Of its
// settings, RateConfig.Burst and Config's Unread and Limit have no
// setter.
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

// Config is decoded from JSON, and nothing reads its Unread field. The
// definition under examples/configs sets its name key; only the
// program's JSON sets unread and only a test's JSON sets limit.
type Config struct {
	Name   string `json:"name"`
	Unread int    `json:"unread"`
	Limit  int    `json:"limit"`
}

// Parse decodes a Config.
func Parse(b []byte) (Config, error) {
	var c Config
	err := json.Unmarshal(b, &c)
	return c, err
}

// RateConfig's Burst only its own withDefaults writes, and only a test
// writes its Rate.
type RateConfig struct {
	Rate  float64
	Burst int
}

func (c RateConfig) withDefaults() RateConfig {
	if c.Burst == 0 {
		c.Burst = 4
	}
	return c
}

// Budget returns what the configuration allows in one burst.
func Budget(c RateConfig) float64 {
	c = c.withDefaults()
	return c.Rate * float64(c.Burst)
}
