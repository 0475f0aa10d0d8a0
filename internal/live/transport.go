package live

import (
	"repro/internal/rdma"
)

// link is one connected neighbour link: a messenger at each end of a
// queue pair, a sending to b.
type link struct{ a, b *rdma.Messenger }

func (l link) close() {
	l.a.Close()
	l.b.Close()
}

// reqMsgBytes bounds a request-link message (reqMsgSize, with room).
const reqMsgBytes = 1 << 12

// newLinks builds data data links — sized to the ring message limit and
// the data-link depth — followed by req request links. If any of them
// fails, every link and queue pair it built is closed.
func (r *Ring) newLinks(data, req int) ([]link, error) {
	links := make([]link, 0, data+req)
	for i := 0; i < data+req; i++ {
		size, depth := r.maxMsgBytes, r.dataDepth
		if i >= data {
			size, depth = reqMsgBytes, 0
		}
		l, err := newLink(size, depth)
		if err != nil {
			for _, built := range links {
				built.close()
			}
			return nil, err
		}
		links = append(links, l)
	}
	return links, nil
}

// newLink wraps a fresh loopback queue pair in two messengers (depth 0:
// the messenger default), closing what it built on error.
func newLink(size, depth int) (link, error) {
	qa, qb, err := rdma.NewTCPPair()
	if err != nil {
		return link{}, err
	}
	a, err := rdma.NewMessengerDepth(qa, size, depth)
	if err != nil {
		qa.Close()
		qb.Close()
		return link{}, err
	}
	b, err := rdma.NewMessengerDepth(qb, size, depth)
	if err != nil {
		a.Close()
		qb.Close()
		return link{}, err
	}
	return link{a, b}, nil
}
