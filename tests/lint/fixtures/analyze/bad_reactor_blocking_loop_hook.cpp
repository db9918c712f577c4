// Fixture: blocking primitive reachable from a node-loop hook. An
// automaton's OnFrame runs on the node's socket loop; this one hands a
// task to another node and waits on its future, so every socket of the
// loop stalls until that node answers (or forever, if it is this node).
// Expected: exactly one check trips — reactor-blocking.

namespace sbft {

template <class T>
class Future {
 public:
  void wait();
};

class Cluster {
 public:
  Future<void> Submit(int node);
};

class Replica {
 public:
  void OnFrame(int from, int frame) {
    if (frame != 0) Forward(from);
  }

 private:
  void Forward(int node) {
    Future<void> done = cluster_->Submit(node);
    done.wait();
  }

  Cluster* cluster_ = nullptr;
};

}  // namespace sbft
