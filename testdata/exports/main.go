// Command fixture uses every export of package shapes but Square.Scale
// and Config.Unread, and sets none of its settings.
package main

import (
	"fmt"

	"fixture/internal/shapes"
)

func main() {
	c := &shapes.Circle{R: 1}
	c.Scale(2)
	sq := shapes.Square{Side: 1}
	fmt.Println(c, shapes.Total(c), sq.Side)
	cfg, err := shapes.Parse([]byte(`{"name": "n", "unread": 1}`))
	fmt.Println(cfg.Name, cfg.Limit, err, shapes.Budget(shapes.RateConfig{}))
}
