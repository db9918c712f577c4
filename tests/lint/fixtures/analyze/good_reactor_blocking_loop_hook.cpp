// Fixture: node-loop hooks that never block. OnFrame and OnTimer only
// post follow-up work; the one wait in the file sits in a driver method
// that runs on the caller's own thread, not on a socket loop, and must
// not be attributed to the hooks. Expected: clean.

namespace sbft {

template <class T>
class Future {
 public:
  void wait();
};

class Cluster {
 public:
  Future<void> Submit(int node);
  void PostToNode(int node, int task);
};

class Replica {
 public:
  void OnFrame(int from, int frame) {
    if (frame != 0) cluster_->PostToNode(from, frame);
  }

  void OnTimer(int timer_id) { cluster_->PostToNode(0, timer_id); }

  // Driver-side: called by a test or bench thread.
  void SyncWithNode(int node) {
    Future<void> done = cluster_->Submit(node);
    done.wait();
  }

 private:
  Cluster* cluster_ = nullptr;
};

}  // namespace sbft
