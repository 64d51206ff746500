#ifndef YOUTOPIA_UTIL_THREAD_ANNOTATIONS_H_
#define YOUTOPIA_UTIL_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis attribute macros.
//
// Under clang with -Wthread-safety these expand to the analysis
// attributes; under GCC (which has no TSA) they expand to nothing, so
// annotated code compiles identically everywhere. The `lint-static-analysis`
// CI job builds src/ with clang and -Wthread-safety -Wthread-safety-beta
// -Werror, turning every violated REQUIRES/GUARDED_BY contract into a
// build failure.
//
// Naming follows the convention from clang's ThreadSafetyAnalysis docs:
// capabilities, acquire/release, and scoped capabilities.

#if defined(__clang__) && defined(__has_attribute)
#define YT_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define YT_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

#define CAPABILITY(x) YT_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define SCOPED_CAPABILITY YT_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define GUARDED_BY(x) YT_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define PT_GUARDED_BY(x) YT_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

// Releases a capability regardless of whether it is held exclusively or
// shared — the right dtor annotation for a guard that can hold either
// (clang warns on releasing a shared hold through a plain RELEASE).
#define RELEASE_GENERIC(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) YT_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) YT_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  YT_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // YOUTOPIA_UTIL_THREAD_ANNOTATIONS_H_
