/**
 * @file
 * @brief Shared helpers for the data file parser tests: a scoped OpenMP
 *        thread count, so a test can parse at one thread and at the
 *        default count and leave the count as it found it.
 */

#ifndef PLSSVM_TESTS_IO_IO_TEST_UTILS_HPP_
#define PLSSVM_TESTS_IO_IO_TEST_UTILS_HPP_

#ifdef _OPENMP
    #include <omp.h>
#endif

namespace plssvm::test {

/// Sets the OpenMP thread count of the calling thread for one scope and
/// restores the previous count after it; a no-op in a build without OpenMP.
class scoped_omp_threads {
  public:
    explicit scoped_omp_threads([[maybe_unused]] const int num_threads) {
#ifdef _OPENMP
        saved_ = omp_get_max_threads();
        omp_set_num_threads(num_threads);
#endif
    }

    ~scoped_omp_threads() {
#ifdef _OPENMP
        omp_set_num_threads(saved_);
#endif
    }

    scoped_omp_threads(const scoped_omp_threads &) = delete;
    scoped_omp_threads &operator=(const scoped_omp_threads &) = delete;

  private:
    [[maybe_unused]] int saved_{ 0 };
};

}  // namespace plssvm::test

#endif  // PLSSVM_TESTS_IO_IO_TEST_UTILS_HPP_
